"""EM step functions for the label models, run over distinct vote patterns.

Both label models see an instance only through its row of LF votes, so a
fit compresses its label matrix once into :class:`VotePatterns` — the
distinct rows, each row's pattern and each pattern's row count — and every
EM iteration runs over the patterns.  The M-steps take *pattern mass*: the
responsibilities summed over each pattern's rows (``counts[:, None] *
responsibilities`` once every row of a pattern shares one posterior).  The
loss is the count-weighted mean of the per-pattern terms, which is the mean
over rows.

One EM iteration of either model is a pure numpy function of arrays — no
``self``, no Python-side state.  The E-steps are shared with the models'
``predict_proba`` paths (:func:`generative_posterior`,
:func:`metal_posterior`), which compute pattern posteriors and scatter them
back through ``inverse``, so the fit loop and prediction can never drift
apart.  The full-row steps these replace are kept as the test oracle
``tests/label_models/reference_em.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

#: Largest integer a packed block key may reach: one bit below int64's range.
_KEY_LIMIT = 2**62


class VotePatterns(NamedTuple):
    """A label matrix as its distinct rows: ``patterns[inverse] == matrix``."""

    #: ``(n_patterns, k)`` distinct vote rows.
    patterns: np.ndarray
    #: ``(n,)`` the pattern of every row.
    inverse: np.ndarray
    #: ``(n_patterns,)`` how many rows share each pattern (floats: EM weights).
    counts: np.ndarray


def block_width(n_classes: int) -> int:
    """Columns packed into one int64 key: the largest *w* with ``(C+1)**w <= 2**62``.

    That is ``floor(62 / log2(C + 1))``, computed in integers: 39 columns
    for two classes, 31 for three, 26 for four.
    """
    base = n_classes + 1
    width = 1
    while base ** (width + 1) <= _KEY_LIMIT:
        width += 1
    return width


def vote_patterns(matrix: np.ndarray, n_classes: int) -> VotePatterns:
    """Compress a label matrix (``ABSTAIN = -1`` or a class) to its distinct rows.

    Each block of up to :func:`block_width` columns packs into one exact
    int64 key, ``(block + 1) @ (C+1)**arange(w)``.  A wider matrix ranks the
    keys seen so far and the next block's keys, and combines them as
    ``ids * n_block_keys + block_rank``; the ranks stay below the row count,
    so the combined ids cannot overflow.  One ``np.unique`` over the final
    1-D ids then groups the rows (never ``np.unique(axis=0)``, which sorts
    rows lexicographically and costs 20-30 ms per call).
    """
    matrix = np.asarray(matrix)
    n_rows, n_cols = matrix.shape
    width = block_width(n_classes)
    powers = (n_classes + 1) ** np.arange(width, dtype=np.int64)
    ids = np.zeros(n_rows, dtype=np.int64)
    for start in range(0, n_cols, width):
        block = matrix[:, start : start + width].astype(np.int64) + 1
        keys = block @ powers[: block.shape[1]]
        if start == 0:
            ids = keys
            continue
        _, ids = np.unique(ids, return_inverse=True)
        block_keys, block_rank = np.unique(keys, return_inverse=True)
        ids = ids * len(block_keys) + block_rank
    _, first, inverse, counts = np.unique(
        ids, return_index=True, return_inverse=True, return_counts=True
    )
    return VotePatterns(matrix[first], inverse, counts.astype(float))


def pattern_sums(rows: np.ndarray, inverse: np.ndarray, n_patterns: int) -> np.ndarray:
    """Sum ``(n, C)`` per-row values over each pattern's rows: ``(n_patterns, C)``.

    The cold start draws per-row jitter, so rows of one pattern start with
    different responsibilities; their sums are the first M-step's mass.
    """
    return np.stack(
        [
            np.bincount(inverse, weights=rows[:, column], minlength=n_patterns)
            for column in range(rows.shape[1])
        ],
        axis=1,
    )


def mean_abs_change(new: np.ndarray, old: np.ndarray, counts: np.ndarray) -> float:
    """Mean absolute responsibility change over all rows and classes.

    *new* and *old* are pattern posteriors; each pattern's change counts once
    per row, so this is the full-row mean of the absolute-change stop rule.
    """
    return float(counts @ np.abs(new - old).sum(axis=1)) / (counts.sum() * new.shape[1])


def _weighted_loss(log_marginal: np.ndarray, counts: np.ndarray) -> float:
    """Mean per-row negative log-likelihood from per-pattern terms."""
    return -float(counts @ log_marginal) / counts.sum()


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
    """Shared E-step: responsibilities and per-row log marginal likelihoods."""
    n_outcomes, n_instances = masks.shape[:2]
    log_proba = np.tile(log_priors, (n_instances, 1))
    for outcome in range(n_outcomes):
        log_proba = log_proba + masks[outcome] @ log_cpts[:, :, outcome]
    shift = log_proba.max(axis=1, keepdims=True)
    proba = np.exp(log_proba - shift)
    norm = proba.sum(axis=1, keepdims=True)
    return proba / norm, shift[:, 0] + np.log(norm[:, 0])


def generative_step(masks, mass, counts, log_priors, smoothing):
    """One generative-model EM iteration over patterns: M-step, then E-step.

    *mass* is the pattern mass the M-step sums; *counts* weigh the loss.
    Returns ``(cpts, responsibilities, loss)``: the pattern posteriors and
    the mean per-row negative log-likelihood *under the new CPTs*.
    """
    n_outcomes = masks.shape[0]
    cpts = np.stack(
        [masks[outcome].T @ mass for outcome in range(n_outcomes)],
        axis=2,
    )
    cpts = cpts + smoothing
    cpts = cpts / cpts.sum(axis=2, keepdims=True)
    log_cpts = np.log(np.clip(cpts, 1e-12, 1.0))
    responsibilities, log_marginal = _generative_e_step(masks, log_priors, log_cpts)
    return cpts, responsibilities, _weighted_loss(log_marginal, counts)


def generative_posterior(
    outcomes: np.ndarray, cpts: np.ndarray, class_priors: np.ndarray
) -> np.ndarray:
    """Posterior responsibilities of encoded vote rows under fixed CPTs."""
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
    """Shared E-step: posteriors and per-row log marginal likelihoods."""
    n_classes = vote_masks.shape[0]
    wrong_share = 1.0 / max(n_classes - 1, 1)
    acc = _clip(accuracies, 1e-6, 1 - 1e-6)
    propensity = _clip(propensities, 1e-6, 1 - 1e-6)
    log_acc = np.log(acc)
    log_wrong = np.log((1.0 - acc) * wrong_share)

    # Adding the priors by broadcasting is the tiled sum: IEEE addition
    # commutes exactly.
    log_proba = not_fired @ np.log(1.0 - propensity) + log_priors
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
    propensities = _clip(
        (fired_mass + smoothing * 0.1) / (class_mass[None, :] + smoothing * 0.2),
        1e-4,
        1.0 - 1e-4,
    )
    # Each pattern's mass on the class each LF votes for.
    agree_weight = mass[np.arange(mass.shape[0])[:, None], vote_index]
    expected_correct = (fired * agree_weight).sum(axis=0)
    total = fired_mass.sum(axis=1)
    accuracies = _clip(
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
