"""Tests for adaptive early stopping of the EM label models.

Three guarantees are pinned here:

* ``early_stop=False`` (the knob's off position) reproduces the historical
  fixed-budget fit — an inline reimplementation of the legacy full-row EM
  loop is the reference: the same iteration count and CPTs within 1e-12
  (the fit runs over distinct vote patterns, so its sums round differently);
* ``early_stop=True`` certifies convergence (``converged_``), agrees with
  the fixed-budget fit on predictions, and stops exactly where the
  relative-loss criterion says it should — the loss change at the stopping
  point is below ``early_stop_rtol`` and the change one step earlier was
  not;
* the per-fit diagnostics (``n_iter_``, ``converged_``, ``final_loss_``)
  behave sensibly on both paths, including the empty-matrix edge case.
"""

import numpy as np
import pytest
import reference_em

from repro.label_models import GenerativeLabelModel, MeTaLLabelModel
from repro.labeling.lf import ABSTAIN
from repro.numerics import relative_change
from repro.utils.rng import ensure_rng

N_CLASSES = 2

MODELS = {"generative": GenerativeLabelModel, "metal": MeTaLLabelModel}


@pytest.fixture()
def matrix():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, N_CLASSES, size=120)
    fired = rng.random((120, 8)) < 0.45
    correct = rng.random((120, 8)) < 0.78
    votes = np.where(correct, labels[:, None], 1 - labels[:, None])
    return np.where(fired, votes, ABSTAIN)


def _legacy_generative_fit(matrix, max_iter=100, tol=1e-5, smoothing=1.0):
    """The pre-seam cold EM loop, op for op (M-step, E-step, abs-change stop).

    Returns ``(cpts, n_iter, converged)``.
    """
    model = reference_em.GenerativeLabelModel(
        n_classes=N_CLASSES, max_iter=max_iter, tol=tol, smoothing=smoothing
    )
    model.class_priors_ = np.full(N_CLASSES, 1.0 / N_CLASSES)
    outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
    responsibilities = model._initial_responsibilities(matrix, ensure_rng(0))
    previous = None
    cpts = None
    for iteration in range(1, max_iter + 1):
        cpts = model._m_step(outcomes, responsibilities)
        responsibilities = model._posterior(outcomes, cpts)
        if previous is not None and float(
            np.mean(np.abs(responsibilities - previous))
        ) < tol:
            return cpts, iteration, True
        previous = responsibilities
    return cpts, max_iter, False


class TestKnobOffPreservesLegacySemantics:
    def test_generative_fit_matches_legacy_loop(self, matrix):
        fitted = GenerativeLabelModel(n_classes=N_CLASSES).fit(matrix)
        cpts, n_iter, converged = _legacy_generative_fit(matrix)
        assert fitted.n_iter_ == n_iter
        assert fitted.converged_ is converged
        np.testing.assert_allclose(fitted.cpts_, cpts, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_default_constructor_keeps_knob_off(self, name):
        model = MODELS[name]()
        assert model.early_stop is False

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_fixed_budget_with_zero_tol_exhausts_max_iter(self, matrix, name):
        model = MODELS[name](n_classes=N_CLASSES, tol=0.0, max_iter=7).fit(matrix)
        assert model.n_iter_ == 7
        assert model.converged_ is False


class TestEarlyStop:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_certifies_convergence_and_matches_fixed_budget(self, matrix, name):
        fixed = MODELS[name](n_classes=N_CLASSES, tol=0.0).fit(matrix)
        early = MODELS[name](
            n_classes=N_CLASSES, early_stop=True, early_stop_rtol=1e-8
        ).fit(matrix)
        assert early.converged_ is True
        assert early.n_iter_ < fixed.n_iter_
        np.testing.assert_allclose(
            early.predict_proba(matrix), fixed.predict_proba(matrix), atol=1e-3
        )
        default = MODELS[name](n_classes=N_CLASSES, early_stop=True).fit(matrix)
        agree = np.mean(
            np.argmax(default.predict_proba(matrix), axis=1)
            == np.argmax(fixed.predict_proba(matrix), axis=1)
        )
        assert agree == 1.0

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_stops_exactly_where_the_criterion_fires(self, matrix, name):
        """Replay the deterministic trajectory: the loss change at the
        stopping point is below rtol, and one step earlier it was not."""
        rtol = 1e-5
        early = MODELS[name](
            n_classes=N_CLASSES, early_stop=True, early_stop_rtol=rtol
        ).fit(matrix)
        n = early.n_iter_
        assert n >= 3  # the trajectory replay below needs two earlier points

        def loss_after(iterations):
            # tol=0.0 can never trigger the legacy criterion, so the fit
            # retraces the identical trajectory and stops at max_iter.
            return (
                MODELS[name](n_classes=N_CLASSES, tol=0.0, max_iter=iterations)
                .fit(matrix)
                .final_loss_
            )

        assert relative_change(early.final_loss_, loss_after(n - 1)) <= rtol
        assert relative_change(loss_after(n - 1), loss_after(n - 2)) > rtol

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_warm_refit_converges_early(self, matrix, name):
        seed_model = MODELS[name](n_classes=N_CLASSES).fit(matrix[:, :-1])
        warm = seed_model.export_warm_start(
            list(range(matrix.shape[1] - 1)) + [-1]
        )
        refit = MODELS[name](n_classes=N_CLASSES, early_stop=True).fit(
            matrix, warm_start=warm
        )
        assert refit.warm_started_
        assert refit.converged_
        assert refit.n_iter_ < refit.max_iter

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_tighter_rtol_runs_longer(self, matrix, name):
        loose = MODELS[name](
            n_classes=N_CLASSES, early_stop=True, early_stop_rtol=1e-2
        ).fit(matrix)
        tight = MODELS[name](
            n_classes=N_CLASSES, early_stop=True, early_stop_rtol=1e-9
        ).fit(matrix)
        assert tight.n_iter_ >= loose.n_iter_


class TestDiagnostics:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_final_loss_is_finite_after_fit(self, matrix, name, early_stop):
        model = MODELS[name](n_classes=N_CLASSES, early_stop=early_stop).fit(matrix)
        assert model.final_loss_ is not None
        assert np.isfinite(model.final_loss_)
        assert model.n_iter_ >= 1

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_max_iter_below_one_is_rejected(self, name):
        with pytest.raises(ValueError, match="max_iter"):
            MODELS[name](max_iter=0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_empty_matrix_reports_trivial_convergence(self, name):
        model = MODELS[name](n_classes=N_CLASSES).fit(
            np.empty((0, 0), dtype=int)
        )
        assert model.n_iter_ == 0
        assert model.converged_ is True
        assert model.final_loss_ is None
