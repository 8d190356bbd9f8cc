"""Tests for the graphical lasso estimator."""

import numpy as np
import pytest

from repro.graphical import (
    GraphicalLassoResult,
    RunningCovariance,
    empirical_covariance,
    graphical_lasso,
    shrink_covariance,
)


def _chain_precision(p=5, off=0.4):
    """Tridiagonal (chain-graph) precision matrix."""
    precision = np.eye(p)
    for i in range(p - 1):
        precision[i, i + 1] = off
        precision[i + 1, i] = off
    return precision


class TestGraphicalLasso:
    def test_precision_is_symmetric(self, rng):
        X = rng.standard_normal((200, 4))
        result = graphical_lasso(X, alpha=0.05)
        np.testing.assert_allclose(result.precision, result.precision.T, atol=1e-8)

    def test_recovers_chain_structure(self, rng):
        true_precision = _chain_precision()
        covariance = np.linalg.inv(true_precision)
        X = rng.multivariate_normal(np.zeros(5), covariance, size=3000)
        result = graphical_lasso(X, alpha=0.05, shrinkage=0.0)
        estimated = result.precision
        # Direct neighbours must carry clearly larger weight than the
        # (conditionally independent) distant pair (0, 4).
        assert abs(estimated[0, 1]) > abs(estimated[0, 4]) + 0.05
        assert abs(estimated[2, 3]) > abs(estimated[0, 3]) + 0.05

    def test_large_alpha_gives_diagonal_precision(self, rng):
        X = rng.standard_normal((300, 4))
        result = graphical_lasso(X, alpha=5.0)
        off_diag = result.precision - np.diag(np.diag(result.precision))
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-4)

    def test_accepts_precomputed_covariance(self, rng):
        X = rng.standard_normal((100, 3))
        cov = empirical_covariance(X)
        result = graphical_lasso(cov, alpha=0.1, from_covariance=True)
        assert result.precision.shape == (3, 3)

    def test_single_variable(self):
        result = graphical_lasso(np.array([[2.0]]), alpha=0.1, from_covariance=True)
        assert result.precision[0, 0] == pytest.approx(0.5)

    def test_negative_alpha_raises(self, rng):
        with pytest.raises(ValueError):
            graphical_lasso(rng.standard_normal((10, 3)), alpha=-0.1)

    def test_non_square_covariance_raises(self, rng):
        with pytest.raises(ValueError):
            graphical_lasso(rng.standard_normal((3, 4)), alpha=0.1, from_covariance=True)

    def test_precision_positive_diagonal(self, rng):
        X = rng.standard_normal((150, 5))
        result = graphical_lasso(X, alpha=0.05)
        assert np.all(np.diag(result.precision) > 0)


class TestWarmStartedGlasso:
    def test_warm_equals_cold_within_tolerance(self, rng):
        """Same convex problem: warm and cold runs reach the same solution."""
        X = rng.multivariate_normal(
            np.zeros(5), np.linalg.inv(_chain_precision()), size=1000
        )
        cold = graphical_lasso(X, alpha=0.05, max_iter=200, tol=1e-8)
        warm = graphical_lasso(
            X, alpha=0.05, max_iter=200, tol=1e-8, warm_start=cold
        )
        assert warm.warm_started
        np.testing.assert_allclose(warm.precision, cold.precision, atol=1e-4)
        np.testing.assert_allclose(warm.covariance, cold.covariance, atol=1e-4)

    def test_warm_start_from_solution_converges_immediately(self, rng):
        X = rng.standard_normal((400, 6))
        cold = graphical_lasso(X, alpha=0.1, max_iter=100, tol=1e-6)
        warm = graphical_lasso(X, alpha=0.1, max_iter=100, tol=1e-6, warm_start=cold)
        assert warm.converged
        assert warm.n_iter <= max(cold.n_iter // 2, 1)

    def test_intersection_map_with_added_and_dropped_variables(self, rng):
        """The map seeds shared pairs; new/dropped variables start cold."""
        X = rng.multivariate_normal(
            np.zeros(5), np.linalg.inv(_chain_precision()), size=800
        )
        previous = graphical_lasso(X[:, :4], alpha=0.05, max_iter=200, tol=1e-8)
        # New problem: variables [0, 2, 3, 4] — drops 1, adds 4.
        keep = [0, 2, 3, 4]
        cold = graphical_lasso(X[:, keep], alpha=0.05, max_iter=200, tol=1e-8)
        warm = graphical_lasso(
            X[:, keep],
            alpha=0.05,
            max_iter=200,
            tol=1e-8,
            warm_start=previous,
            warm_start_map=np.array([0, 2, 3, -1]),
        )
        assert warm.warm_started
        np.testing.assert_allclose(warm.precision, cold.precision, atol=1e-4)

    def test_inapplicable_map_degrades_to_cold(self, rng):
        X = rng.standard_normal((200, 4))
        previous = graphical_lasso(X, alpha=0.05)
        # Wrong length and out-of-range source indices are both rejected.
        short = graphical_lasso(
            X, alpha=0.05, warm_start=previous, warm_start_map=np.array([0, 1])
        )
        out_of_range = graphical_lasso(
            X, alpha=0.05, warm_start=previous, warm_start_map=np.array([0, 1, 2, 9])
        )
        cold = graphical_lasso(X, alpha=0.05)
        for result in (short, out_of_range):
            assert not result.warm_started
            np.testing.assert_array_equal(result.precision, cold.precision)

    def test_dimension_mismatch_without_map_degrades_to_cold(self, rng):
        X = rng.standard_normal((200, 4))
        previous = graphical_lasso(X[:, :3], alpha=0.05)
        result = graphical_lasso(X, alpha=0.05, warm_start=previous)
        assert not result.warm_started
        # Both directions: a *smaller* new problem must not be seeded
        # positionally from a larger previous result either.
        bigger_previous = graphical_lasso(X, alpha=0.05)
        shrunk = graphical_lasso(X[:, :3], alpha=0.05, warm_start=bigger_previous)
        assert not shrunk.warm_started

    def test_fewer_than_two_mapped_variables_degrades_to_cold(self, rng):
        X = rng.standard_normal((200, 3))
        previous = graphical_lasso(X, alpha=0.05)
        result = graphical_lasso(
            X, alpha=0.05, warm_start=previous, warm_start_map=np.array([0, -1, -1])
        )
        assert not result.warm_started

    def test_indefinite_seed_falls_back_to_cold(self, rng):
        """A seed block that breaks positive-definiteness must be discarded."""
        X = rng.standard_normal((200, 3))
        bogus_cov = np.full((3, 3), 50.0)  # wildly inconsistent off-diagonals
        bogus = GraphicalLassoResult(
            covariance=bogus_cov, precision=np.eye(3), n_iter=1, converged=True
        )
        result = graphical_lasso(X, alpha=0.05, warm_start=bogus)
        cold = graphical_lasso(X, alpha=0.05)
        assert not result.warm_started
        np.testing.assert_array_equal(result.precision, cold.precision)

    def test_cold_result_is_unchanged_by_feature(self, rng):
        """No warm_start argument: byte-identical to the historical path."""
        X = rng.standard_normal((150, 4))
        first = graphical_lasso(X, alpha=0.05)
        second = graphical_lasso(X, alpha=0.05, warm_start=None)
        np.testing.assert_array_equal(first.precision, second.precision)
        assert not first.warm_started


class TestRunningCovariance:
    def test_single_shot_matches_empirical(self, rng):
        X = rng.standard_normal((60, 5))
        running = RunningCovariance()
        running.add_rows(X)
        np.testing.assert_allclose(
            running.covariance(), empirical_covariance(X), atol=1e-12
        )

    def test_row_appends_match_full_recompute(self, rng):
        X = rng.standard_normal((90, 4))
        running = RunningCovariance()
        for chunk in np.array_split(X, 5):
            running.add_rows(chunk)
        np.testing.assert_allclose(
            running.covariance(), empirical_covariance(X), atol=1e-10
        )

    def test_column_appends_match_full_recompute(self, rng):
        X = rng.standard_normal((50, 6))
        running = RunningCovariance()
        running.add_rows(X[:, :2])
        running.add_columns(X[:, 2:4])
        running.add_columns(X[:, 4:])
        np.testing.assert_allclose(
            running.covariance(), empirical_covariance(X), atol=1e-10
        )

    def test_update_diffs_rows_and_columns_together(self, rng):
        X = rng.standard_normal((80, 7))
        running = RunningCovariance()
        running.update(X[:30, :3])
        running.update(X[:55, :5])
        running.update(X)
        assert running.n_rows == 80 and running.n_features == 7
        np.testing.assert_allclose(
            running.covariance(), empirical_covariance(X), atol=1e-10
        )

    def test_shrinkage_matches_empirical(self, rng):
        X = rng.standard_normal((40, 3)) @ np.diag([1.0, 4.0, 9.0])
        running = RunningCovariance()
        running.update(X)
        np.testing.assert_allclose(
            running.covariance(shrinkage=0.1),
            empirical_covariance(X, shrinkage=0.1),
            atol=1e-10,
        )

    def test_subblock_equals_submatrix_covariance(self, rng):
        """Centring is per-column: sub-blocks are exact submatrix covariances."""
        X = rng.standard_normal((70, 6))
        running = RunningCovariance()
        running.update(X)
        sub = [0, 2, 5]
        np.testing.assert_allclose(
            running.covariance()[np.ix_(sub, sub)],
            empirical_covariance(X[:, sub]),
            atol=1e-10,
        )

    def test_shrunk_subblock_matches_shrunk_submatrix(self, rng):
        X = rng.standard_normal((70, 6))
        running = RunningCovariance()
        running.update(X)
        sub = [1, 3, 4]
        np.testing.assert_allclose(
            shrink_covariance(running.covariance()[np.ix_(sub, sub)], 0.1),
            empirical_covariance(X[:, sub], shrinkage=0.1),
            atol=1e-10,
        )

    def test_shrinking_update_rejected(self, rng):
        running = RunningCovariance()
        running.update(rng.standard_normal((10, 4)))
        with pytest.raises(ValueError):
            running.update(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            running.update(rng.standard_normal((12, 3)))

    def test_mismatched_appends_rejected(self, rng):
        running = RunningCovariance()
        with pytest.raises(ValueError):
            running.add_columns(rng.standard_normal((5, 2)))
        running.add_rows(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            running.add_rows(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            running.add_columns(rng.standard_normal((4, 2)))

    def test_empty_readout_rejected(self):
        with pytest.raises(ValueError):
            RunningCovariance().covariance()


class TestEmpiricalCovariance:
    def test_matches_numpy_cov(self, rng):
        X = rng.standard_normal((500, 3))
        ours = empirical_covariance(X)
        reference = np.cov(X, rowvar=False, bias=True)
        np.testing.assert_allclose(ours, reference, atol=1e-10)

    def test_shrinkage_moves_toward_identity_scale(self, rng):
        X = rng.standard_normal((100, 3)) @ np.diag([1.0, 5.0, 10.0])
        raw = empirical_covariance(X, shrinkage=0.0)
        shrunk = empirical_covariance(X, shrinkage=1.0)
        # Full shrinkage yields an isotropic matrix.
        np.testing.assert_allclose(shrunk, np.eye(3) * np.trace(raw) / 3, atol=1e-8)

    def test_invalid_shrinkage_raises(self, rng):
        with pytest.raises(ValueError):
            empirical_covariance(rng.standard_normal((10, 2)), shrinkage=2.0)


class TestRelativeStoppingCriterion:
    """The sweeps stop on the mean covariance change relative to the
    covariance's own scale, so the sweep count does not depend on the units
    of the data."""

    def _scaled_runs(self, rng, **kwargs):
        data = rng.multivariate_normal(
            np.zeros(6), np.linalg.inv(_chain_precision(6)), size=500
        )
        # Rescaling the data by c scales the covariance by c^2 and the
        # precision by c^-2; scaling alpha along keeps the *problem*
        # identical up to units, so a unit-free criterion must take the
        # same number of sweeps on both.
        return [
            graphical_lasso(
                data * scale, alpha=0.05 * scale**2, max_iter=200, **kwargs
            )
            for scale in (1.0, 100.0)
        ]

    def test_relative_criterion_is_scale_invariant(self, rng):
        unit, scaled = self._scaled_runs(rng, tol=1e-4)
        assert unit.converged and scaled.converged
        assert unit.n_iter == scaled.n_iter

    def test_early_stop_reports_final_change(self, rng):
        result, _ = self._scaled_runs(rng, tol=1e-4)
        assert result.final_change is not None
        assert 0.0 <= result.final_change <= 1e-4
