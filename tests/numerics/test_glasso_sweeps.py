"""Tests for the numpy graphical-lasso sweeps and the inner lasso solver."""

import numpy as np
import pytest
import reference_glasso as reference

import repro.numerics.glasso as glasso_module
from repro.numerics.glasso import feature_sign, glasso_block_sweeps, lasso_cd


def _spd(rng, p, n_samples=200):
    data = rng.normal(size=(n_samples, p))
    data[:, 1] += 0.8 * data[:, 0]
    data[:, 2] -= 0.5 * data[:, 1]
    return np.cov(data, rowvar=False)


def _sweep(emp_cov, alpha, max_iter=100, tol=1e-8, sweeps=glasso_block_sweeps, **options):
    """Cold-start the sweeps the way ``graphical_lasso`` does."""
    p = emp_cov.shape[0]
    covariance = emp_cov.copy()
    covariance.flat[:: p + 1] += alpha
    return sweeps(covariance, np.eye(p), emp_cov, alpha, max_iter, tol, **options)


def _assert_kkt(gram, linear, alpha, weights, atol=1e-8):
    gradient = gram @ weights - linear
    active = weights != 0
    np.testing.assert_allclose(
        gradient[active], -alpha * np.sign(weights[active]), atol=atol
    )
    assert (np.abs(gradient[~active]) <= alpha + atol).all()


@pytest.fixture
def solve_spy(monkeypatch):
    """Record ``[matrix, rhs, solution]`` of every exact solve attempted.

    ``solution`` stays ``None`` when the solve raised.
    """
    calls = []
    solve = np.linalg.solve

    def spy(matrix, rhs):
        calls.append([matrix, rhs, None])
        calls[-1][2] = solve(matrix, rhs)
        return calls[-1][2]

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


class TestLassoCd:
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_solution_satisfies_the_kkt_conditions(self, rng, alpha):
        gram = _spd(rng, 6)
        linear = rng.normal(size=6)

        weights = lasso_cd(gram, linear, alpha, max_iter=2000, tol=1e-12)

        _assert_kkt(gram, linear, alpha, weights)

    def test_initial_guess_is_not_mutated(self, rng, solve_spy):
        gram, linear = _spd(rng, 5), rng.normal(size=5)
        initial = rng.normal(size=5)
        snapshot = initial.copy()
        # A read-only guess fails loudly on any write, not just a visible one.
        initial.setflags(write=False)

        lasso_cd(gram, linear, 0.1, initial=initial)

        assert solve_spy, "the exact-solve step never ran"
        np.testing.assert_array_equal(initial, snapshot)

    def test_zero_iterations_return_the_initial_guess(self, rng):
        gram, linear = _spd(rng, 5), rng.normal(size=5)
        initial = rng.normal(size=5)

        np.testing.assert_array_equal(
            lasso_cd(gram, linear, 0.1, max_iter=0, initial=initial), initial
        )

    def test_solution_is_a_fixed_point(self, rng):
        gram, linear = _spd(rng, 5), rng.normal(size=5)
        solution = lasso_cd(gram, linear, 0.05, max_iter=2000, tol=1e-14)

        again = lasso_cd(gram, linear, 0.05, max_iter=1, initial=solution)

        np.testing.assert_allclose(again, solution, atol=1e-12)

    def test_non_positive_diagonal_is_guarded(self):
        gram = np.diag([0.0, -1.0, 2.0])
        linear = np.array([0.05, -0.05, 1.0])

        with np.errstate(all="raise"):
            weights = lasso_cd(gram, linear, 0.1)

        np.testing.assert_array_equal(weights, [0.0, 0.0, 0.45])


class TestExactSupportSolve:
    """The exact solve on each sweep's support, after a sweep that did not converge."""

    def test_a_sign_consistent_solve_finishes_in_one_sweep(self):
        gram = np.array([[1.0, 0.9], [0.9, 1.0]])
        linear = np.array([1.0, 0.95])

        # One coordinate sweep reaches the right signs but not the optimum;
        # the exact solve on that support lands on the optimum itself.
        weights = lasso_cd(gram, linear, 0.1, max_iter=1)

        _assert_kkt(gram, linear, 0.1, weights, atol=1e-12)

    def test_a_sign_mismatched_candidate_is_rejected(self, solve_spy):
        gram = np.array([[1.0, 0.9], [0.9, 1.0]])
        linear = np.array([0.5, 1.0])

        # From zero the first sweep makes both weights positive, but the
        # optimum has w0 < 0: the exact solve on the sweep's support and signs
        # flips w0's sign and must not replace the coordinate-descent iterate.
        weights = lasso_cd(gram, linear, 0.1, max_iter=1)

        np.testing.assert_allclose(weights, [0.4, 0.54], atol=1e-15)
        (_, _, candidate), = solve_spy
        assert candidate[0] < 0 < weights[0]

        solution = lasso_cd(gram, linear, 0.1, max_iter=2000, tol=1e-12)
        _assert_kkt(gram, linear, 0.1, solution)
        np.testing.assert_allclose(solution, [-21 / 19, 36 / 19], atol=1e-12)

    @pytest.mark.parametrize("shape", ["duplicated-column", "rank-deficient"])
    def test_a_singular_support_gram_neither_raises_nor_goes_non_finite(
        self, rng, solve_spy, shape
    ):
        if shape == "duplicated-column":
            design = rng.normal(size=(20, 3))
            design = np.column_stack([design, design[:, 0]])
        else:
            design = rng.normal(size=(3, 6))
        gram = design.T @ design
        linear = design.T @ rng.normal(size=design.shape[0])

        with np.errstate(all="raise"):
            weights = lasso_cd(gram, linear, 0.1, max_iter=2000, tol=1e-12)

        assert any(
            np.linalg.matrix_rank(matrix) < matrix.shape[0] for matrix, _, _ in solve_spy
        ), "no exact solve met a singular support gram"
        assert np.isfinite(weights).all()
        _assert_kkt(gram, linear, 0.1, weights)

    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    @pytest.mark.parametrize("seed", range(4))
    def test_lasso_agrees_with_the_historical_solver(self, seed, alpha):
        rng = np.random.default_rng(seed)
        gram, linear = _spd(rng, 8), rng.normal(size=8)

        weights = lasso_cd(gram, linear, alpha, max_iter=5000, tol=1e-12)
        expected = reference.lasso_cd(gram, linear, alpha, max_iter=5000, tol=1e-12)

        _assert_kkt(gram, linear, alpha, weights)
        np.testing.assert_allclose(weights, expected, atol=1e-6)
        np.testing.assert_array_equal(weights != 0, expected != 0)

    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    @pytest.mark.parametrize("seed", range(3))
    def test_sweeps_agree_with_the_historical_solver(self, seed, alpha):
        emp_cov = _spd(np.random.default_rng(seed), 7)
        options = dict(tol=1e-10, lasso_max_iter=5000, lasso_tol=1e-12)

        covariance, precision, _, converged, _ = _sweep(emp_cov, alpha, **options)
        expected = _sweep(
            emp_cov, alpha, sweeps=reference.glasso_block_sweeps, early_stop=True, **options
        )

        assert converged and expected[3]
        np.testing.assert_allclose(covariance, expected[0], atol=1e-6)
        np.testing.assert_allclose(precision, expected[1], atol=1e-6)
        np.testing.assert_array_equal(precision != 0, expected[1] != 0)


def _feature_sign(gram, linear, alpha, start, exclude):
    return feature_sign(gram, linear, alpha, start, 2 * gram.shape[0] + 4, exclude)


def _kept(p, exclude):
    return np.delete(np.arange(p), exclude)


class TestFeatureSign:
    """The active-set lasso solver each glasso column tries first."""

    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    @pytest.mark.parametrize("seed", range(4))
    def test_solution_is_an_exact_kkt_point_of_the_oracle_lasso(self, seed, alpha):
        rng = np.random.default_rng(seed)
        gram, linear = _spd(rng, 8), rng.normal(size=8)
        exclude = seed % 8
        kept = _kept(8, exclude)
        sub_gram, sub_linear = gram[np.ix_(kept, kept)], linear[kept]
        expected = reference.lasso_cd(sub_gram, sub_linear, alpha, max_iter=20000, tol=1e-12)
        # A random start has the wrong support and signs: the search must
        # drop, flip and add coordinates to reach the optimum.
        for start in (np.zeros(8), rng.normal(size=8)):
            weights = _feature_sign(gram, linear, alpha, start, exclude)

            assert weights[exclude] == 0.0
            _assert_kkt(sub_gram, sub_linear, alpha, weights[kept], atol=1e-10)
            np.testing.assert_allclose(weights[kept], expected, atol=1e-8)
            np.testing.assert_array_equal(weights[kept] != 0, expected != 0)

    def test_the_excluded_coordinate_is_never_added(self, rng, monkeypatch):
        gram, linear = _spd(rng, 6), rng.normal(size=6)
        exclude = 2
        # The excluded coordinate is the largest KKT violator, and the start
        # puts weight on it.
        linear[exclude] = 100.0
        start = np.full(6, 0.1)
        blocks = []
        solve = glasso_module.dgesv

        def spy(block, rhs):
            blocks.append(block)
            return solve(block, rhs)

        monkeypatch.setattr(glasso_module, "dgesv", spy)
        weights = _feature_sign(gram, linear, 0.05, start, exclude)

        assert weights is not None and weights[exclude] == 0.0
        assert blocks and all(gram[exclude, exclude] not in np.diag(b) for b in blocks)

    def test_the_line_search_resolves_after_a_sign_flip(self):
        gram = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        linear = np.array([0.5, 1.0, 0.0])

        # Solving on the start's signs (+, +) overshoots w0 to -2.16; the line
        # search keeps that point (it beats the crossing at w0 = 0), and the
        # solve on its signs (-, +) is the optimum.
        weights = _feature_sign(gram, linear, 0.1, np.array([0.4, 0.54, 0.0]), exclude=2)

        np.testing.assert_allclose(weights, [-21 / 19, 36 / 19, 0.0], atol=1e-12)

    @pytest.mark.parametrize("w0", [0.2, 0.35])
    def test_a_winning_zero_crossing_drops_the_coordinate(self, w0):
        gram = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.0], [0.0, 0.0, 1.0]])
        linear = np.array([0.801, 1.0, 0.0])

        # The solve on (+, +) overshoots w0 to -9.5; the point where w0
        # crosses zero wins the line search.  From these starts, interpolating
        # to that crossing leaves w0 a few 1e-17 off zero; only setting it to
        # exactly 0.0 drops it from the support.
        weights = _feature_sign(gram, linear, 0.1, np.array([w0, 0.5, 0.0]), exclude=2)

        assert weights[0] == 0.0
        np.testing.assert_allclose(weights, [0.0, 0.9, 0.0], atol=1e-12)

    @pytest.mark.parametrize("shape", ["duplicated-column", "rank-deficient"])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_singular_gram_gives_up_or_returns_a_kkt_point(self, seed, shape):
        rng = np.random.default_rng(seed)
        if shape == "duplicated-column":
            design = rng.normal(size=(20, 4))
            design = np.column_stack([design, design[:, 0], np.zeros(20)])
        else:
            design = np.column_stack([rng.normal(size=(3, 6)), np.zeros(3)])
        gram = design.T @ design
        linear = design.T @ rng.normal(size=design.shape[0])
        p = gram.shape[0]
        exclude = p - 1
        kept = _kept(p, exclude)

        with np.errstate(all="raise"):
            for start in (np.zeros(p), rng.normal(size=p)):
                weights = _feature_sign(gram, linear, 0.1, start, exclude)
                if weights is not None:
                    _assert_kkt(gram[np.ix_(kept, kept)], linear[kept], 0.1, weights[kept])

    def test_power_of_two_scaling_is_exact(self, rng):
        gram, linear = _spd(rng, 8), rng.normal(size=8)
        start = rng.normal(size=8)
        scale = 8.0

        base = _feature_sign(gram, linear, 0.05, start, exclude=3)
        scaled = _feature_sign(gram * scale, linear * scale, 0.05 * scale, start, exclude=3)

        np.testing.assert_array_equal(scaled, base)

    def test_a_read_only_start_is_not_mutated(self, rng):
        gram, linear = _spd(rng, 6), rng.normal(size=6)
        start = rng.normal(size=6)
        snapshot = start.copy()
        start.setflags(write=False)

        weights = _feature_sign(gram, linear, 0.05, start, exclude=1)

        assert weights is not None and weights[1] == 0.0
        np.testing.assert_array_equal(start, snapshot)

    def test_the_sweeps_fall_back_to_coordinate_descent(self, monkeypatch):
        emp_cov = _spd(np.random.default_rng(0), 7)
        options = dict(tol=1e-10, lasso_max_iter=5000, lasso_tol=1e-12)
        expected = _sweep(emp_cov, 0.05, **options)
        attempts = []

        def gives_up(*args, **kwargs):
            attempts.append(args)
            return None

        monkeypatch.setattr(glasso_module, "_feature_sign", gives_up)
        covariance, precision, n_iter, converged, _ = _sweep(emp_cov, 0.05, **options)

        assert len(attempts) == 7 * n_iter
        assert converged and expected[3]
        np.testing.assert_allclose(covariance, expected[0], atol=1e-8)
        np.testing.assert_allclose(precision, expected[1], atol=1e-8)
        np.testing.assert_array_equal(precision != 0, expected[1] != 0)


class TestFeatureSignOracleBits:
    """The sweeps give the frozen feature-sign oracle's bits, whichever product they use."""

    @pytest.fixture
    def products(self, monkeypatch):
        """Whether each column lasso handed its KKT product to the sweep."""
        handed = []
        search = glasso_module._feature_sign

        def spy(*args, **kwargs):
            found = search(*args, **kwargs)
            if found is not None:
                handed.append(found[1] is not None)
            return found

        monkeypatch.setattr(glasso_module, "_feature_sign", spy)
        return handed

    @staticmethod
    def _assert_same_bits(emp_cov, alpha, start=None):
        p = emp_cov.shape[0]
        seed = np.eye(p) if start is None else start
        covariance = emp_cov + alpha * np.eye(p)
        result = glasso_block_sweeps(covariance.copy(), seed.copy(), emp_cov, alpha, 50, 1e-8)
        expected = reference.feature_sign_sweeps(
            covariance.copy(), seed.copy(), emp_cov, alpha, 50, 1e-8
        )
        np.testing.assert_array_equal(result[0], expected[0])
        np.testing.assert_array_equal(result[1], expected[1])
        assert result[2:] == expected[2:]

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_problems(self, seed, warm, products):
        rng = np.random.default_rng(seed)
        emp_cov = _spd(rng, 9)
        start = np.linalg.inv(emp_cov + 0.1 * np.eye(9)) if warm else None

        self._assert_same_bits(emp_cov, 0.02, start)

        assert products

    def test_an_in_order_support_reuses_the_kkt_product(self, products):
        # One correlated pair: every support has at most one variable.
        emp_cov = np.eye(5)
        emp_cov[0, 4] = emp_cov[4, 0] = 0.5

        self._assert_same_bits(emp_cov, 0.05)

        assert products and all(products)

    def test_an_out_of_order_support_recomputes_the_column(self, products):
        # Column 0 is solved first, from zero: it adds variable 5 (the
        # largest violator) before variable 1, so its final support [5, 1] is
        # not in index order.
        emp_cov = np.eye(6)
        emp_cov[0, 5] = emp_cov[5, 0] = 0.6
        emp_cov[0, 1] = emp_cov[1, 0] = 0.3

        self._assert_same_bits(emp_cov, 0.05)

        assert False in products


class TestGlassoBlockSweeps:
    def test_zero_sweeps_return_the_seed_untouched(self, rng):
        emp_cov = _spd(rng, 4)

        covariance, precision, n_iter, converged, final_change = _sweep(
            emp_cov, 0.1, max_iter=0
        )

        expected = emp_cov + 0.1 * np.eye(4)
        np.testing.assert_array_equal(covariance, expected)
        np.testing.assert_array_equal(precision, np.eye(4))
        assert (n_iter, converged, final_change) == (0, False, None)

    def test_exhausted_budget_is_not_reported_as_converged(self, rng):
        emp_cov = _spd(rng, 5)

        _, _, n_iter, converged, final_change = _sweep(emp_cov, 0.05, max_iter=1, tol=0.0)

        assert n_iter == 1 and not converged and final_change > 0

    def test_iterates_are_symmetric(self, rng):
        covariance, precision, _, converged, _ = _sweep(_spd(rng, 6), 0.05)

        assert converged
        np.testing.assert_allclose(covariance, covariance.T, atol=1e-12)
        np.testing.assert_allclose(precision, precision.T, atol=1e-12)

    def test_diagonal_stays_at_the_penalised_empirical_variance(self, rng):
        emp_cov = _spd(rng, 6)

        covariance, _, _, _, _ = _sweep(emp_cov, 0.2)

        np.testing.assert_array_equal(np.diag(covariance), np.diag(emp_cov) + 0.2)

    def test_precision_inverts_the_covariance_at_convergence(self, rng):
        covariance, precision, _, converged, _ = _sweep(_spd(rng, 6), 0.05, tol=1e-10)

        assert converged
        np.testing.assert_allclose(precision @ covariance, np.eye(6), atol=1e-6)

    def test_zero_penalty_reproduces_the_empirical_covariance(self, rng):
        emp_cov = _spd(rng, 5)

        covariance, precision, _, converged, _ = _sweep(
            emp_cov, 0.0, tol=1e-12, lasso_max_iter=5000, lasso_tol=1e-14
        )

        assert converged
        np.testing.assert_allclose(covariance, emp_cov, atol=1e-8)
        np.testing.assert_allclose(precision, np.linalg.inv(emp_cov), atol=1e-6)

    def test_independent_blocks_stay_independent(self, rng):
        left, right = _spd(rng, 3), _spd(rng, 3)
        emp_cov = np.zeros((6, 6))
        emp_cov[:3, :3], emp_cov[3:, 3:] = left, right

        covariance, precision, _, _, _ = _sweep(emp_cov, 0.05)

        np.testing.assert_array_equal(precision[:3, 3:], 0.0)
        np.testing.assert_array_equal(covariance[:3, 3:], 0.0)
        assert (precision[:3, :3] != 0).sum() > 3

    def test_larger_penalty_gives_no_more_edges(self, rng):
        emp_cov = _spd(rng, 8)
        edges = []
        for alpha in (0.01, 0.1, 0.3, 1.0):
            _, precision, _, _, _ = _sweep(emp_cov, alpha)
            off_diagonal = precision[~np.eye(8, dtype=bool)]
            edges.append(int((off_diagonal != 0).sum()))

        assert edges == sorted(edges, reverse=True)
        assert edges[0] > 0 and edges[-1] == 0

    def test_early_stop_is_exactly_scale_equivariant(self, rng):
        emp_cov = _spd(rng, 6)
        # A power-of-two scale is exact in floating point, so every iterate
        # must scale exactly and the relative stopping rule must fire on the
        # same sweep.
        scale = 8.0

        base = _sweep(emp_cov, 0.05, tol=1e-4)
        scaled = _sweep(emp_cov * scale, 0.05 * scale, tol=1e-4)

        np.testing.assert_array_equal(scaled[0], base[0] * scale)
        np.testing.assert_array_equal(scaled[1], base[1] / scale)
        assert scaled[2:4] == base[2:4]
