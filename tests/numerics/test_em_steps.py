"""Tests for the EM step functions and the relative-loss stopping rule.

The full-row steps are the test oracle in ``tests/label_models/reference_em.py``;
the property tests below pin them, and ``TestPatternStepsMatchOracle`` pins
the production pattern steps of :mod:`repro.numerics.em` against them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "label_models"))

import reference_em  # noqa: E402
import reference_metal_steps as frozen  # noqa: E402
from reference_em import (  # noqa: E402
    generative_masks,
    generative_posterior,
    generative_step,
    metal_masks,
    metal_posterior,
    metal_step,
)

from repro.label_models import GenerativeLabelModel, MeTaLLabelModel  # noqa: E402
from repro.labeling.lf import ABSTAIN  # noqa: E402
from repro.numerics import RelativeLossStop, em, relative_change  # noqa: E402

N_CLASSES = 2


@pytest.fixture()
def matrix():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, N_CLASSES, size=60)
    fired = rng.random((60, 7)) < 0.5
    correct = rng.random((60, 7)) < 0.75
    votes = np.where(correct, labels[:, None], 1 - labels[:, None])
    return np.where(fired, votes, ABSTAIN)


class TestStepsMatchModels:
    """The shared step functions and the model internals must agree exactly."""

    def test_generative_posterior_matches_model_e_step(self, matrix):
        model = GenerativeLabelModel(n_classes=N_CLASSES).fit(matrix)
        outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
        np.testing.assert_array_equal(
            generative_posterior(outcomes, model.cpts_, model.class_priors_),
            model._posterior(outcomes, model.cpts_),
        )

    def test_generative_step_composes_m_then_e(self, matrix):
        model = reference_em.GenerativeLabelModel(n_classes=N_CLASSES).fit(matrix)
        outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
        resp = model._posterior(outcomes, model.cpts_)
        log_priors = np.log(np.clip(model.class_priors_, 1e-12, 1.0))

        cpts, new_resp, _ = generative_step(
            generative_masks(outcomes, N_CLASSES + 1), resp, log_priors, model.smoothing
        )
        expected_cpts = model._m_step(outcomes, resp)
        np.testing.assert_allclose(cpts, expected_cpts, atol=1e-15)
        np.testing.assert_allclose(
            new_resp, model._posterior(outcomes, expected_cpts), atol=1e-15
        )

    def test_metal_posterior_matches_model_e_step(self, matrix):
        model = MeTaLLabelModel(n_classes=N_CLASSES).fit(matrix)
        np.testing.assert_array_equal(
            metal_posterior(
                matrix, ABSTAIN, model.accuracies_, model.propensities_,
                model.class_priors_, model.n_classes,
            ),
            model._posterior(matrix),
        )

    def test_metal_step_composes_m_then_e(self, matrix):
        model = MeTaLLabelModel(n_classes=N_CLASSES).fit(matrix)
        resp = model._posterior(matrix)
        fired, not_fired, vote_masks, vote_index = metal_masks(
            matrix, N_CLASSES, ABSTAIN
        )
        never_fired = ~(matrix != ABSTAIN).any(axis=0)
        low, high = model.accuracy_bounds

        acc, prop, new_resp, _ = metal_step(
            fired, not_fired, vote_masks, vote_index, never_fired,
            resp, np.log(np.clip(model.class_priors_, 1e-12, 1.0)),
            model.smoothing, model.prior_accuracy, low, high,
        )
        reference = reference_em.MeTaLLabelModel(n_classes=N_CLASSES)
        reference.class_priors_ = model.class_priors_
        reference._m_step(matrix, resp)
        np.testing.assert_allclose(acc, reference.accuracies_, atol=1e-15)
        np.testing.assert_allclose(prop, reference.propensities_, atol=1e-15)
        np.testing.assert_allclose(new_resp, reference._posterior(matrix), atol=1e-15)


class TestPatternStepsMatchOracle:
    """One pattern step from pattern mass equals one full-row step from rows."""

    @pytest.fixture()
    def repeated(self, matrix):
        # Every row three times, shuffled: the pattern mass sums distinct rows.
        rng = np.random.default_rng(21)
        return np.repeat(matrix, 3, axis=0)[rng.permutation(3 * matrix.shape[0])]

    def test_generative_step(self, repeated):
        rng = np.random.default_rng(22)
        resp = rng.dirichlet(np.ones(N_CLASSES), size=repeated.shape[0])
        log_priors = np.log(np.full(N_CLASSES, 1.0 / N_CLASSES))
        outcomes = np.where(repeated == ABSTAIN, 0, repeated + 1)
        patterns, inverse, counts = em.vote_patterns(repeated, N_CLASSES)
        pattern_masks = em.generative_masks(
            np.where(patterns == ABSTAIN, 0, patterns + 1), N_CLASSES + 1
        )

        cpts, pattern_resp, loss = em.generative_step(
            pattern_masks, em.pattern_sums(resp, inverse, len(counts)), counts,
            log_priors, 1.0,
        )
        expected_cpts, expected_resp, expected_loss = generative_step(
            generative_masks(outcomes, N_CLASSES + 1), resp, log_priors, 1.0
        )

        np.testing.assert_allclose(cpts, expected_cpts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pattern_resp[inverse], expected_resp, rtol=0, atol=1e-12)
        assert loss == pytest.approx(expected_loss, rel=1e-12)

    def test_metal_step(self, repeated):
        rng = np.random.default_rng(23)
        resp = rng.dirichlet(np.ones(N_CLASSES), size=repeated.shape[0])
        log_priors = np.log(np.full(N_CLASSES, 1.0 / N_CLASSES))
        patterns, inverse, counts = em.vote_patterns(repeated, N_CLASSES)
        masks = em.metal_masks(patterns, N_CLASSES, ABSTAIN)
        never_fired = ~masks[0].any(axis=0)

        acc, prop, pattern_resp, loss = em.metal_step(
            *masks, never_fired, em.pattern_sums(resp, inverse, len(counts)), counts,
            log_priors, 1.0, 0.7, 0.55, 0.98,
        )
        expected = metal_step(
            *metal_masks(repeated, N_CLASSES, ABSTAIN), never_fired, resp,
            log_priors, 1.0, 0.7, 0.55, 0.98,
        )

        np.testing.assert_allclose(acc, expected[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(prop, expected[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pattern_resp[inverse], expected[2], rtol=0, atol=1e-12)
        assert loss == pytest.approx(expected[3], rel=1e-12)

    def test_mean_abs_change_is_the_full_row_mean(self, repeated):
        rng = np.random.default_rng(24)
        patterns, inverse, counts = em.vote_patterns(repeated, N_CLASSES)
        new, old = (rng.dirichlet(np.ones(N_CLASSES), size=len(counts)) for _ in range(2))

        assert em.mean_abs_change(new, old, counts) == pytest.approx(
            np.mean(np.abs(new[inverse] - old[inverse])), rel=1e-12
        )


class TestMetalStepsMatchFrozenBits:
    """The MeTaL pattern steps give the frozen copy's bits (``reference_metal_steps``)."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_step_and_posterior(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        matrix = _noisy_matrix(rng, 90, 7, n_classes)
        patterns, inverse, counts = em.vote_patterns(matrix, n_classes)
        masks = em.metal_masks(patterns, n_classes, ABSTAIN)
        never_fired = ~masks[0].any(axis=0)
        mass = em.pattern_sums(
            rng.dirichlet(np.ones(n_classes), size=matrix.shape[0]), inverse, len(counts)
        )
        log_priors = np.log(rng.dirichlet(np.ones(n_classes)))
        arguments = (*masks, never_fired, mass, counts, log_priors, 1.0, 0.7, 0.55, 0.98)

        result = em.metal_step(*arguments)
        expected = frozen.metal_step(*arguments)

        for value, frozen_value in zip(result, expected):
            assert np.array_equal(value, frozen_value)
        posterior = (patterns, ABSTAIN, result[0], result[1], np.exp(log_priors), n_classes)
        assert np.array_equal(
            em.metal_posterior(*posterior), frozen.metal_posterior(*posterior)
        )

    def test_cold_and_warm_fits(self):
        matrix = _noisy_matrix(np.random.default_rng(5), 300, 9, N_CLASSES)
        # The warm fit carries the first six LFs and adds three.
        column_map = [0, 1, 2, 3, 4, 5, -1, -1, -1]
        with frozen.frozen_metal_steps():
            expected = MeTaLLabelModel(random_state=0, early_stop=True)
            expected_proba = expected.fit_predict_proba(matrix[:, :6])
            expected_warm = expected.fit_predict_proba(
                matrix, warm_start=expected.export_warm_start(column_map)
            )
        model = MeTaLLabelModel(random_state=0, early_stop=True)
        proba = model.fit_predict_proba(matrix[:, :6])
        warm = model.fit_predict_proba(matrix, warm_start=model.export_warm_start(column_map))

        assert np.array_equal(proba, expected_proba)
        assert np.array_equal(warm, expected_warm)
        assert model.warm_started_ and model.n_iter_ == expected.n_iter_
        assert model.final_loss_ == expected.final_loss_
        assert np.array_equal(model.accuracies_, expected.accuracies_)
        assert np.array_equal(model.propensities_, expected.propensities_)


class TestRelativeLossStop:
    def test_first_update_never_stops(self):
        stopper = RelativeLossStop(rtol=1e-3)
        assert not stopper.update(10.0)

    def test_stops_on_small_relative_change(self):
        stopper = RelativeLossStop(rtol=1e-3)
        stopper.update(10.0)
        assert not stopper.update(9.0)
        assert stopper.update(9.0005)

    def test_criterion_is_scale_invariant(self):
        for scale in (1e-6, 1.0, 1e6):
            stopper = RelativeLossStop(rtol=1e-3)
            stopper.update(10.0 * scale)
            assert stopper.update(10.0001 * scale)

    def test_relative_change_guards_zero_previous(self):
        assert relative_change(1.0, 0.0) == 1e12
        assert relative_change(5.0, 10.0) == pytest.approx(0.5)


def _noisy_matrix(rng, n_instances, n_lfs, n_classes, fire_rate=0.5, accuracy=0.75):
    """Votes of *n_lfs* noisy LFs on *n_instances* items with *n_classes* labels."""
    labels = rng.integers(0, n_classes, size=n_instances)
    fired = rng.random((n_instances, n_lfs)) < fire_rate
    correct = rng.random((n_instances, n_lfs)) < accuracy
    wrong = (labels[:, None] + rng.integers(1, max(n_classes, 2), (n_instances, n_lfs))) % n_classes
    votes = np.where(correct, labels[:, None], wrong)
    return np.where(fired, votes, ABSTAIN)


def _generative_inputs(rng, matrix, n_classes):
    outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
    masks = generative_masks(outcomes, n_classes + 1)
    responsibilities = rng.dirichlet(np.ones(n_classes), size=matrix.shape[0])
    log_priors = np.log(np.full(n_classes, 1.0 / n_classes))
    return outcomes, masks, responsibilities, log_priors


def _metal_inputs(rng, matrix, n_classes):
    fired, not_fired, vote_masks, vote_index = metal_masks(matrix, n_classes, ABSTAIN)
    never_fired = ~(matrix != ABSTAIN).any(axis=0)
    responsibilities = rng.dirichlet(np.ones(n_classes), size=matrix.shape[0])
    log_priors = np.log(np.full(n_classes, 1.0 / n_classes))
    return (fired, not_fired, vote_masks, vote_index, never_fired), responsibilities, log_priors


def _logsumexp_rows(values):
    shift = values.max(axis=1, keepdims=True)
    return shift[:, 0] + np.log(np.exp(values - shift).sum(axis=1))


class TestMasks:
    def test_generative_masks_partition_every_cell(self, matrix):
        outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
        masks = generative_masks(outcomes, N_CLASSES + 1)
        assert masks.shape == (N_CLASSES + 1,) + matrix.shape
        np.testing.assert_array_equal(masks.sum(axis=0), np.ones(matrix.shape))
        np.testing.assert_array_equal(masks[0], (matrix == ABSTAIN).astype(float))

    def test_metal_masks_split_fired_from_abstained(self, matrix):
        fired, not_fired, vote_masks, vote_index = metal_masks(matrix, N_CLASSES, ABSTAIN)
        np.testing.assert_array_equal(fired + not_fired, np.ones(matrix.shape))
        np.testing.assert_array_equal(vote_masks.sum(axis=0), fired)
        assert vote_index.min() >= 0
        on = matrix != ABSTAIN
        np.testing.assert_array_equal(vote_index[on], matrix[on])


class TestGenerativeStepProperties:
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_outputs_are_distributions(self, n_classes):
        rng = np.random.default_rng(n_classes)
        matrix = _noisy_matrix(rng, 80, 6, n_classes)
        _, masks, resp, log_priors = _generative_inputs(rng, matrix, n_classes)

        cpts, new_resp, loss = generative_step(masks, resp, log_priors, 1.0)

        assert cpts.shape == (6, n_classes, n_classes + 1)
        assert (cpts > 0).all()
        np.testing.assert_allclose(cpts.sum(axis=2), 1.0, atol=1e-12)
        assert (new_resp >= 0).all()
        np.testing.assert_allclose(new_resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(loss) and loss > 0

    def test_loss_is_mean_negative_log_marginal_likelihood(self):
        rng = np.random.default_rng(11)
        matrix = _noisy_matrix(rng, 40, 5, 3)
        outcomes, masks, resp, log_priors = _generative_inputs(rng, matrix, 3)

        cpts, new_resp, loss = generative_step(masks, resp, log_priors, 0.5)

        # Brute force: log p(x_i) = logsumexp_c [log pi_c + sum_j log cpt[j, c, x_ij]].
        lfs = np.arange(matrix.shape[1])
        joint = np.stack(
            [
                log_priors[c] + np.log(cpts[lfs, c, outcomes]).sum(axis=1)
                for c in range(3)
            ],
            axis=1,
        )
        marginal = _logsumexp_rows(joint)
        assert loss == pytest.approx(-marginal.mean(), rel=1e-12)
        np.testing.assert_allclose(new_resp, np.exp(joint - marginal[:, None]), atol=1e-12)

    def test_unsmoothed_iterations_never_increase_the_loss(self):
        rng = np.random.default_rng(5)
        matrix = _noisy_matrix(rng, 120, 8, 2)
        _, masks, resp, log_priors = _generative_inputs(rng, matrix, 2)

        losses = []
        for _ in range(25):
            _, resp, loss = generative_step(masks, resp, log_priors, 0.0)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), losses

    def test_class_blind_cpts_leave_the_posterior_at_the_priors(self):
        rng = np.random.default_rng(2)
        matrix = _noisy_matrix(rng, 30, 4, 3)
        outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
        per_lf = rng.dirichlet(np.ones(4), size=4)
        cpts = np.repeat(per_lf[:, None, :], 3, axis=1)
        priors = np.array([0.2, 0.3, 0.5])

        proba = generative_posterior(outcomes, cpts, priors)

        np.testing.assert_allclose(proba, np.tile(priors, (30, 1)), atol=1e-12)

    def test_relabelling_classes_permutes_the_posterior(self):
        rng = np.random.default_rng(8)
        matrix = _noisy_matrix(rng, 50, 6, 2)
        outcomes = np.where(matrix == ABSTAIN, 0, matrix + 1)
        cpts = rng.dirichlet(np.ones(3), size=(6, 2))
        priors = np.array([0.35, 0.65])

        swapped_outcomes = np.where(outcomes == 0, 0, 3 - outcomes)
        swapped_cpts = cpts[:, ::-1, :][:, :, [0, 2, 1]]

        np.testing.assert_allclose(
            generative_posterior(swapped_outcomes, swapped_cpts, priors[::-1]),
            generative_posterior(outcomes, cpts, priors)[:, ::-1],
            atol=1e-12,
        )

    def test_inputs_are_not_mutated(self, matrix):
        rng = np.random.default_rng(0)
        _, masks, resp, log_priors = _generative_inputs(rng, matrix, N_CLASSES)
        before = (masks.copy(), resp.copy(), log_priors.copy())

        generative_step(masks, resp, log_priors, 1.0)

        for original, after in zip(before, (masks, resp, log_priors)):
            np.testing.assert_array_equal(original, after)


class TestMetalStepProperties:
    LOW, HIGH, PRIOR = 0.55, 0.98, 0.7

    def _step(self, rng, matrix, n_classes, smoothing=1.0):
        masks, resp, log_priors = _metal_inputs(rng, matrix, n_classes)
        return metal_step(
            *masks, resp, log_priors, smoothing, self.PRIOR, self.LOW, self.HIGH
        )

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_outputs_are_distributions_within_bounds(self, n_classes):
        rng = np.random.default_rng(10 + n_classes)
        matrix = _noisy_matrix(rng, 80, 6, n_classes)

        acc, prop, resp, loss = self._step(rng, matrix, n_classes)

        assert acc.shape == (6,) and prop.shape == (6, n_classes)
        assert ((acc >= self.LOW) & (acc <= self.HIGH)).all()
        assert ((prop > 0) & (prop < 1)).all()
        assert (resp >= 0).all()
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(loss) and loss > 0

    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_never_fired_lfs_keep_the_prior_accuracy(self, smoothing):
        rng = np.random.default_rng(4)
        matrix = _noisy_matrix(rng, 60, 5, 2)
        matrix[:, [1, 3]] = ABSTAIN

        # Unsmoothed, a silent LF's accuracy estimate is 0 / 0.
        with np.errstate(invalid="ignore"):
            acc, _, _, _ = self._step(rng, matrix, 2, smoothing=smoothing)

        assert acc[1] == self.PRIOR and acc[3] == self.PRIOR

    def test_loss_is_mean_negative_log_marginal_likelihood(self):
        rng = np.random.default_rng(12)
        n_classes = 3
        matrix = _noisy_matrix(rng, 40, 5, n_classes)
        masks, resp, log_priors = _metal_inputs(rng, matrix, n_classes)

        acc, prop, new_resp, loss = metal_step(
            *masks, resp, log_priors, 1.0, self.PRIOR, self.LOW, self.HIGH
        )

        # Brute force: an abstain costs 1 - propensity, an agreeing vote
        # propensity * accuracy, a disagreeing one propensity * the wrong share.
        joint = np.zeros((40, n_classes))
        for c in range(n_classes):
            per_lf = np.where(
                matrix == ABSTAIN,
                np.log(1 - prop[:, c]),
                np.log(prop[:, c])
                + np.where(
                    matrix == c, np.log(acc), np.log((1 - acc) / (n_classes - 1))
                ),
            )
            joint[:, c] = log_priors[c] + per_lf.sum(axis=1)
        marginal = _logsumexp_rows(joint)
        assert loss == pytest.approx(-marginal.mean(), rel=1e-12)
        np.testing.assert_allclose(new_resp, np.exp(joint - marginal[:, None]), atol=1e-12)

    def test_all_abstain_rows_keep_the_priors_under_class_blind_propensities(self):
        rng = np.random.default_rng(6)
        matrix = _noisy_matrix(rng, 20, 4, 2)
        matrix[:5] = ABSTAIN
        propensities = np.repeat(rng.uniform(0.2, 0.8, size=(4, 1)), 2, axis=1)
        priors = np.array([0.3, 0.7])

        proba = metal_posterior(
            matrix, ABSTAIN, np.full(4, 0.8), propensities, priors, 2
        )

        np.testing.assert_allclose(proba[:5], np.tile(priors, (5, 1)), atol=1e-12)

    def test_relabelling_classes_permutes_the_posterior(self):
        rng = np.random.default_rng(9)
        matrix = _noisy_matrix(rng, 50, 6, 2)
        accuracies = rng.uniform(0.6, 0.95, size=6)
        propensities = rng.uniform(0.2, 0.8, size=(6, 2))
        priors = np.array([0.4, 0.6])
        swapped = np.where(matrix == ABSTAIN, ABSTAIN, 1 - matrix)

        np.testing.assert_allclose(
            metal_posterior(
                swapped, ABSTAIN, accuracies, propensities[:, ::-1], priors[::-1], 2
            ),
            metal_posterior(matrix, ABSTAIN, accuracies, propensities, priors, 2)[:, ::-1],
            atol=1e-12,
        )

    def test_inputs_are_not_mutated(self, matrix):
        rng = np.random.default_rng(1)
        masks, resp, log_priors = _metal_inputs(rng, matrix, N_CLASSES)
        before = [array.copy() for array in (*masks, resp, log_priors)]

        metal_step(*masks, resp, log_priors, 1.0, self.PRIOR, self.LOW, self.HIGH)

        for original, after in zip(before, (*masks, resp, log_priors)):
            np.testing.assert_array_equal(original, after)
