"""MeTaL's pattern EM steps as they stood before their wrapper work was trimmed.

A verbatim copy of ``repro.numerics.em``'s ``_metal_e_step``, ``metal_step``
and ``metal_posterior`` from before the steps dropped ``np.tile``,
``np.clip``'s wrapper and ``np.take_along_axis``.  The production steps must
match these bit for bit: same posteriors, parameters, losses and EM
iteration counts.  :func:`frozen_metal_steps` runs the production model on
this copy; ``benchmarks/bench_em_replay.py`` and
``tests/numerics/test_em_steps.py`` compare the two.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.numerics.em import _weighted_loss, metal_masks


def _metal_e_step(fired, not_fired, vote_masks, log_priors, accuracies, propensities):
    """Shared E-step: posteriors and per-row log marginal likelihoods."""
    n_classes = vote_masks.shape[0]
    wrong_share = 1.0 / max(n_classes - 1, 1)
    acc = np.clip(accuracies, 1e-6, 1 - 1e-6)
    propensity = np.clip(propensities, 1e-6, 1 - 1e-6)
    log_acc = np.log(acc)
    log_wrong = np.log((1.0 - acc) * wrong_share)

    n_instances = fired.shape[0]
    log_proba = np.tile(log_priors, (n_instances, 1))
    log_proba = log_proba + not_fired @ np.log(1.0 - propensity)
    log_proba = log_proba + fired @ (np.log(propensity) + log_wrong[:, None])
    agree_minus_wrong = log_acc - log_wrong
    agree = np.stack(
        [vote_masks[cls] @ agree_minus_wrong for cls in range(n_classes)], axis=1
    )
    log_proba = log_proba + agree
    shift = log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba - shift)
    norm = proba.sum(axis=1, keepdims=True)
    return proba / norm, shift[:, 0] + np.log(norm[:, 0])


def metal_step(
    fired, not_fired, vote_masks, vote_index, never_fired,
    mass, counts, log_priors, smoothing, prior_accuracy, low, high,
):
    """One MeTaL-model EM iteration over patterns: M-step, then E-step.

    *mass* is the pattern mass the M-step sums; *counts* weigh the loss.
    Returns ``(accuracies, propensities, responsibilities, loss)``.
    """
    class_mass = mass.sum(axis=0) + 1e-12
    fired_mass = fired.T @ mass
    propensities = np.clip(
        (fired_mass + smoothing * 0.1) / (class_mass[None, :] + smoothing * 0.2),
        1e-4,
        1.0 - 1e-4,
    )
    agree_weight = np.take_along_axis(mass, vote_index, axis=1)
    expected_correct = (fired * agree_weight).sum(axis=0)
    total = fired_mass.sum(axis=1)
    accuracies = np.clip(
        (expected_correct + smoothing * prior_accuracy) / (total + smoothing),
        low,
        high,
    )
    # LFs that never fire carry no evidence; keep the prior accuracy.
    accuracies = np.where(never_fired, prior_accuracy, accuracies)
    responsibilities, log_marginal = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return accuracies, propensities, responsibilities, _weighted_loss(log_marginal, counts)


def metal_posterior(
    matrix: np.ndarray,
    abstain: int,
    accuracies: np.ndarray,
    propensities: np.ndarray,
    class_priors: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Posterior responsibilities of vote rows under fixed parameters."""
    fired, not_fired, vote_masks, _ = metal_masks(matrix, n_classes, abstain)
    log_priors = np.log(np.clip(class_priors, 1e-12, 1.0))
    proba, _ = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return proba


@contextmanager
def frozen_metal_steps():
    """Run :class:`repro.label_models.MeTaLLabelModel` on this module's steps."""
    import repro.label_models.metal as metal

    steps = metal.metal_step, metal.metal_posterior
    metal.metal_step, metal.metal_posterior = metal_step, metal_posterior
    try:
        yield
    finally:
        metal.metal_step, metal.metal_posterior = steps
