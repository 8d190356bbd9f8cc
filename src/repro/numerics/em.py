"""EM step functions for the label models.

One EM iteration of either label model is expressed here as a pure numpy
function of arrays — no ``self``, no Python-side state — mirroring the
models' reference M-steps operation for operation.

The E-steps are shared with the models' ``predict_proba`` paths
(:func:`generative_posterior`, :func:`metal_posterior`) so the fit loop and
prediction can never drift apart.
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------- generative
def generative_masks(outcomes: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Stacked per-outcome indicator masks, shape ``(n_outcomes, n, k)``.

    ``outcomes`` uses the generative model's encoding (0 = abstain,
    ``1 + c`` = vote for class *c*).  Computed once per fit instead of once
    per EM iteration — the masks are the only function of the label matrix
    either step needs.
    """
    return np.stack(
        [(outcomes == outcome).astype(float) for outcome in range(n_outcomes)]
    )


def _generative_e_step(masks, log_priors, log_cpts):
    """Shared E-step: responsibilities and mean negative log-likelihood."""
    n_outcomes, n_instances = masks.shape[:2]
    log_proba = np.tile(log_priors, (n_instances, 1))
    for outcome in range(n_outcomes):
        log_proba = log_proba + masks[outcome] @ log_cpts[:, :, outcome]
    shift = log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba - shift)
    norm = proba.sum(axis=1, keepdims=True)
    loss = -np.mean(shift[:, 0] + np.log(norm[:, 0]))
    return proba / norm, loss


def generative_step(masks, responsibilities, log_priors, smoothing):
    """One generative-model EM iteration: M-step, then E-step.

    Returns ``(cpts, responsibilities, loss)`` where ``loss`` is the mean
    per-instance negative log-likelihood *under the new CPTs*.
    """
    n_outcomes = masks.shape[0]
    cpts = np.stack(
        [masks[outcome].T @ responsibilities for outcome in range(n_outcomes)],
        axis=2,
    )
    cpts = cpts + smoothing
    cpts = cpts / cpts.sum(axis=2, keepdims=True)
    log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
    responsibilities, loss = _generative_e_step(masks, log_priors, log_cpts)
    return cpts, responsibilities, loss


def generative_posterior(
    outcomes: np.ndarray, cpts: np.ndarray, class_priors: np.ndarray
) -> np.ndarray:
    """Posterior responsibilities under fixed CPTs (prediction path)."""
    masks = generative_masks(outcomes, cpts.shape[2])
    log_priors = np.log(np.clip(class_priors, 1e-12, 1.0))
    log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
    proba, _ = _generative_e_step(masks, log_priors, log_cpts)
    return proba


# -------------------------------------------------------------------- metal
def metal_masks(
    matrix: np.ndarray, n_classes: int, abstain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(fired, not_fired, vote_masks, vote_index)`` for the MeTaL steps.

    ``vote_masks`` is stacked per class, shape ``(n_classes, n, k)``;
    ``vote_index`` clips abstains to a valid row index (their weight is
    masked out by ``fired`` wherever it is used).
    """
    fired = (matrix != abstain).astype(float)
    vote_masks = np.stack(
        [(matrix == cls).astype(float) for cls in range(n_classes)]
    )
    vote_index = np.clip(matrix, 0, None)
    return fired, 1.0 - fired, vote_masks, vote_index


def _metal_e_step(fired, not_fired, vote_masks, log_priors, accuracies, propensities):
    """Shared E-step: posterior over Y given votes, accuracies, propensities."""
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
    loss = -np.mean(shift[:, 0] + np.log(norm[:, 0]))
    return proba / norm, loss


def metal_step(
    fired, not_fired, vote_masks, vote_index, never_fired,
    responsibilities, log_priors, smoothing, prior_accuracy, low, high,
):
    """One MeTaL-model EM iteration: M-step, then E-step.

    Returns ``(accuracies, propensities, responsibilities, loss)``.
    """
    class_mass = responsibilities.sum(axis=0) + 1e-12
    fired_mass = fired.T @ responsibilities
    propensities = np.clip(
        (fired_mass + smoothing * 0.1) / (class_mass[None, :] + smoothing * 0.2),
        1e-4,
        1.0 - 1e-4,
    )
    agree_weight = np.take_along_axis(responsibilities, vote_index, axis=1)
    expected_correct = (fired * agree_weight).sum(axis=0)
    total = fired_mass.sum(axis=1)
    accuracies = np.clip(
        (expected_correct + smoothing * prior_accuracy) / (total + smoothing),
        low,
        high,
    )
    # LFs that never fire carry no evidence; keep the prior accuracy.
    accuracies = np.where(never_fired, prior_accuracy, accuracies)
    responsibilities, loss = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return accuracies, propensities, responsibilities, loss


def metal_posterior(
    matrix: np.ndarray,
    abstain: int,
    accuracies: np.ndarray,
    propensities: np.ndarray,
    class_priors: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Posterior responsibilities under fixed parameters (prediction path)."""
    fired, not_fired, vote_masks, _ = metal_masks(matrix, n_classes, abstain)
    log_priors = np.log(np.clip(class_priors, 1e-12, 1.0))
    proba, _ = _metal_e_step(
        fired, not_fired, vote_masks, log_priors, accuracies, propensities
    )
    return proba
