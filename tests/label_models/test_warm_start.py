"""Tests for the warm-start refit contract and the vectorised EM loops."""

import numpy as np
import pytest
import reference_em

from repro.labeling import ABSTAIN
from repro.label_models import (
    GenerativeLabelModel,
    LabelModelWarmStart,
    MajorityVoteLabelModel,
    MeTaLLabelModel,
)

EM_MODELS = [GenerativeLabelModel, MeTaLLabelModel]


def _make_matrix(rng, n=1200, n_lfs=8, coverage=0.5):
    y = rng.integers(0, 2, n)
    matrix = np.full((n, n_lfs), ABSTAIN)
    for j in range(n_lfs):
        fire = rng.random(n) < coverage
        correct = rng.random(n) < 0.6 + 0.3 * rng.random()
        matrix[fire & correct, j] = y[fire & correct]
        matrix[fire & ~correct, j] = 1 - y[fire & ~correct]
    return matrix, y


@pytest.mark.parametrize("cls", EM_MODELS)
class TestWarmStartContract:
    def test_same_matrix_warm_fit_converges_fast_and_matches(self, cls, rng):
        matrix, _ = _make_matrix(rng)
        cold = cls(n_classes=2).fit(matrix)
        warm = cls(n_classes=2).fit(matrix, warm_start=cold.export_warm_start())
        assert warm.warm_started_
        # Refitting a converged model is (nearly) a no-op: one EM iteration.
        assert warm.n_iter_ < cold.n_iter_
        np.testing.assert_allclose(
            warm.predict_proba(matrix), cold.predict_proba(matrix), atol=1e-3
        )

    def test_superset_warm_fit_saves_iterations_within_tol(self, cls, rng):
        matrix, _ = _make_matrix(rng, n_lfs=10)
        base = cls(n_classes=2).fit(matrix[:, :8])
        column_map = list(range(8)) + [-1, -1]
        cold = cls(n_classes=2).fit(matrix)
        warm = cls(n_classes=2).fit(
            matrix, warm_start=base.export_warm_start(column_map=column_map)
        )
        assert warm.warm_started_
        assert warm.n_iter_ <= cold.n_iter_
        np.testing.assert_allclose(
            warm.predict_proba(matrix), cold.predict_proba(matrix), atol=5e-2
        )
        # Both reach (close to) the same accuracies for the shared columns.
        np.testing.assert_allclose(warm.accuracies_, cold.accuracies_, atol=5e-2)

    def test_inapplicable_payload_falls_back_to_cold_bitwise(self, cls, rng):
        matrix, _ = _make_matrix(rng)
        cold = cls(n_classes=2).fit(matrix)
        for payload in (
            None,
            LabelModelWarmStart(model="SomethingElse", n_classes=2, params={"x": np.ones(8)}),
            LabelModelWarmStart(model=cls.__name__, n_classes=3, params={"x": np.ones(8)}),
        ):
            refit = cls(n_classes=2).fit(matrix, warm_start=payload)
            assert not refit.warm_started_
            # Cold fits are deterministic, so the fallback is bit-identical.
            np.testing.assert_array_equal(
                refit.predict_proba(matrix), cold.predict_proba(matrix)
            )

    def test_wrong_length_column_map_is_ignored(self, cls, rng):
        matrix, _ = _make_matrix(rng)
        base = cls(n_classes=2).fit(matrix)
        payload = base.export_warm_start(column_map=[0, 1])  # wrong length
        refit = cls(n_classes=2).fit(matrix, warm_start=payload)
        assert not refit.warm_started_

    def test_out_of_range_column_map_is_ignored(self, cls, rng):
        matrix, _ = _make_matrix(rng)
        base = cls(n_classes=2).fit(matrix[:, :4])
        payload = base.export_warm_start(column_map=[0, 1, 2, 3, 99, -1, -1, -1])
        refit = cls(n_classes=2).fit(matrix, warm_start=payload)
        assert not refit.warm_started_

    def test_all_new_columns_map_is_ignored(self, cls, rng):
        matrix, _ = _make_matrix(rng)
        base = cls(n_classes=2).fit(matrix)
        payload = base.export_warm_start(column_map=[-1] * matrix.shape[1])
        refit = cls(n_classes=2).fit(matrix, warm_start=payload)
        assert not refit.warm_started_

    def test_unfitted_model_exports_none(self, cls):
        assert cls(n_classes=2).export_warm_start() is None

    def test_empty_fit_exports_none(self, cls):
        model = cls(n_classes=2).fit(np.empty((4, 0), dtype=int))
        assert model.export_warm_start() is None


@pytest.mark.parametrize("cls", EM_MODELS)
class TestIntersectionMappedWarmStart:
    """Partial-overlap maps (the LabelPick-churn case): drops + adds at once."""

    def test_intersection_map_matches_cold_within_tol(self, cls, rng):
        matrix, _ = _make_matrix(rng, n_lfs=10)
        base = cls(n_classes=2).fit(matrix[:, :6])
        # New selection: columns [2..9] — drops 0-1, keeps 2-5, adds 6-9.
        new = matrix[:, 2:]
        column_map = [2, 3, 4, 5, -1, -1, -1, -1]
        cold = cls(n_classes=2).fit(new)
        warm = cls(n_classes=2).fit(
            new, warm_start=base.export_warm_start(column_map=column_map)
        )
        assert warm.warm_started_
        assert warm.n_iter_ <= cold.n_iter_
        np.testing.assert_allclose(
            warm.predict_proba(new), cold.predict_proba(new), atol=5e-2
        )

    def test_subset_map_matches_cold_within_tol(self, cls, rng):
        """The new selection is strictly smaller than the previous fit's."""
        matrix, _ = _make_matrix(rng, n_lfs=8)
        base = cls(n_classes=2).fit(matrix)
        new = matrix[:, [1, 3, 6]]
        cold = cls(n_classes=2).fit(new)
        warm = cls(n_classes=2).fit(
            new, warm_start=base.export_warm_start(column_map=[1, 3, 6])
        )
        assert warm.warm_started_
        np.testing.assert_allclose(
            warm.predict_proba(new), cold.predict_proba(new), atol=5e-2
        )

    def test_many_seeds_agreement(self, cls, rng):
        """Hypothesis-style sweep: random overlaps never break agreement."""
        for seed in range(5):
            local = np.random.default_rng(seed)
            matrix, _ = _make_matrix(local, n=600, n_lfs=9)
            previous_cols = sorted(
                local.choice(9, size=local.integers(2, 8), replace=False).tolist()
            )
            new_cols = sorted(
                local.choice(9, size=local.integers(2, 9), replace=False).tolist()
            )
            base = cls(n_classes=2).fit(matrix[:, previous_cols])
            position = {col: i for i, col in enumerate(previous_cols)}
            column_map = [position.get(col, -1) for col in new_cols]
            new = matrix[:, new_cols]
            warm = cls(n_classes=2).fit(
                new, warm_start=base.export_warm_start(column_map=column_map)
            )
            cold = cls(n_classes=2).fit(new)
            if not any(entry >= 0 for entry in column_map):
                assert not warm.warm_started_
                continue
            assert warm.warm_started_
            np.testing.assert_allclose(
                warm.predict_proba(new), cold.predict_proba(new), atol=5e-2
            )


class TestMajorityVoteWarmStart:
    def test_stateless_model_ignores_warm_start(self, rng):
        matrix, _ = _make_matrix(rng, n_lfs=3)
        model = MajorityVoteLabelModel(n_classes=2)
        model.fit(matrix, warm_start=None)
        assert model.export_warm_start() is None


@pytest.mark.parametrize("cls", EM_MODELS)
class TestPriorConsistentFallback:
    def test_uncovered_rows_get_class_balance(self, cls, rng):
        matrix, _ = _make_matrix(rng, n_lfs=4)
        extended = np.vstack([matrix, np.full((3, 4), ABSTAIN)])
        balance = np.array([0.8, 0.2])
        model = cls(n_classes=2, class_balance=balance).fit(extended)
        proba = model.predict_proba(extended)
        np.testing.assert_allclose(proba[-3:], np.tile(balance, (3, 1)), atol=1e-8)

    def test_zero_lf_fit_predicts_class_balance(self, cls):
        balance = np.array([0.7, 0.3])
        matrix = np.empty((5, 0), dtype=int)
        proba = cls(n_classes=2, class_balance=balance).fit(matrix).predict_proba(matrix)
        np.testing.assert_allclose(proba, np.tile(balance, (5, 1)))


class TestVectorizedEMEquivalence:
    """The oracle's batched full-row EM updates match per-LF Python loops."""

    @staticmethod
    def _generative_m_step_reference(model, outcomes, responsibilities):
        n_lfs = outcomes.shape[1]
        n_outcomes = model.n_classes + 1
        cpts = np.zeros((n_lfs, model.n_classes, n_outcomes))
        for j in range(n_lfs):
            for outcome in range(n_outcomes):
                mask = outcomes[:, j] == outcome
                cpts[j, :, outcome] = responsibilities[mask].sum(axis=0)
        cpts += model.smoothing
        cpts /= cpts.sum(axis=2, keepdims=True)
        return cpts

    @staticmethod
    def _generative_e_step_reference(model, outcomes, cpts):
        n_instances, n_lfs = outcomes.shape
        log_proba = np.tile(
            np.log(np.clip(model.class_priors_, 1e-12, 1.0)), (n_instances, 1)
        )
        log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
        for j in range(n_lfs):
            log_proba += log_cpts[j, :, outcomes[:, j]]
        log_proba -= log_proba.max(axis=1, keepdims=True)
        proba = np.exp(log_proba)
        proba /= proba.sum(axis=1, keepdims=True)
        return proba

    def test_generative_steps_match_reference(self, rng):
        matrix, _ = _make_matrix(rng, n=500, n_lfs=5)
        model = reference_em.GenerativeLabelModel(n_classes=2).fit(matrix)
        outcomes = model._encode(matrix)
        responsibilities = model._posterior(outcomes, model.cpts_)

        reference_cpts = self._generative_m_step_reference(model, outcomes, responsibilities)
        np.testing.assert_allclose(
            model._m_step(outcomes, responsibilities), reference_cpts, atol=1e-12
        )
        np.testing.assert_allclose(
            model._posterior(outcomes, model.cpts_),
            self._generative_e_step_reference(model, outcomes, model.cpts_),
            atol=1e-12,
        )

    @staticmethod
    def _metal_posterior_reference(model, matrix):
        n_instances, n_lfs = matrix.shape
        wrong_share = 1.0 / max(model.n_classes - 1, 1)
        log_proba = np.tile(
            np.log(np.clip(model.class_priors_, 1e-12, 1.0)), (n_instances, 1)
        )
        for j in range(n_lfs):
            acc = float(np.clip(model.accuracies_[j], 1e-6, 1 - 1e-6))
            votes = matrix[:, j]
            fired = votes != ABSTAIN
            for cls in range(model.n_classes):
                propensity = float(np.clip(model.propensities_[j, cls], 1e-6, 1 - 1e-6))
                agree = fired & (votes == cls)
                disagree = fired & (votes != cls)
                log_proba[~fired, cls] += np.log(1.0 - propensity)
                log_proba[agree, cls] += np.log(propensity * acc)
                log_proba[disagree, cls] += np.log(propensity * (1.0 - acc) * wrong_share)
        log_proba -= log_proba.max(axis=1, keepdims=True)
        proba = np.exp(log_proba)
        proba /= proba.sum(axis=1, keepdims=True)
        return proba

    @staticmethod
    def _metal_m_step_reference(model, matrix, responsibilities):
        n_instances, n_lfs = matrix.shape
        low, high = model.accuracy_bounds
        accuracies = np.empty(n_lfs)
        propensities = np.empty((n_lfs, model.n_classes))
        class_mass = responsibilities.sum(axis=0) + 1e-12
        for j in range(n_lfs):
            votes = matrix[:, j]
            fired = votes != ABSTAIN
            fired_mass = responsibilities[fired].sum(axis=0)
            propensities[j] = np.clip(
                (fired_mass + model.smoothing * 0.1) / (class_mass + model.smoothing * 0.2),
                1e-4,
                1.0 - 1e-4,
            )
            if not np.any(fired):
                accuracies[j] = model.prior_accuracy
                continue
            agree_weight = responsibilities[np.arange(n_instances), np.clip(votes, 0, None)]
            expected_correct = float(np.sum(agree_weight[fired]))
            total = float(np.sum(responsibilities[fired]))
            accuracy = (expected_correct + model.smoothing * model.prior_accuracy) / (
                total + model.smoothing
            )
            accuracies[j] = float(np.clip(accuracy, low, high))
        return accuracies, propensities

    def test_metal_steps_match_reference(self, rng):
        matrix, _ = _make_matrix(rng, n=500, n_lfs=5)
        # Include a never-firing LF to cover the prior-accuracy branch.
        matrix = np.column_stack([matrix, np.full(matrix.shape[0], ABSTAIN)])
        model = reference_em.MeTaLLabelModel(n_classes=2).fit(matrix)
        responsibilities = model._posterior(matrix)

        np.testing.assert_allclose(
            model._posterior(matrix),
            self._metal_posterior_reference(model, matrix),
            atol=1e-12,
        )
        ref_acc, ref_prop = self._metal_m_step_reference(model, matrix, responsibilities)
        model._m_step(matrix, responsibilities)
        np.testing.assert_allclose(model.accuracies_, ref_acc, atol=1e-12)
        np.testing.assert_allclose(model.propensities_, ref_prop, atol=1e-12)
