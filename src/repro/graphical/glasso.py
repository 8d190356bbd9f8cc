"""Graphical lasso: sparse inverse-covariance estimation.

Implements the block coordinate-descent algorithm of Friedman, Hastie and
Tibshirani (2008).  Each sweep updates one row/column of the covariance
estimate by solving a lasso problem on the remaining block; the precision
matrix is recovered at the end.  The estimated precision's sparsity pattern
defines the undirected dependency graph LabelPick uses to extract the Markov
blanket of the class label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphical.covariance import empirical_covariance
from repro.numerics.glasso import glasso_block_sweeps


@dataclass
class GraphicalLassoResult:
    """Output of :func:`graphical_lasso`.

    Attributes
    ----------
    covariance:
        Regularised covariance estimate ``W``.
    precision:
        Sparse precision (inverse covariance) estimate ``Theta``.
    n_iter:
        Number of outer sweeps performed.
    converged:
        Whether the outer loop reached its tolerance before ``max_iter``.
    warm_started:
        Whether the iterates were seeded from a previous result.
    final_change:
        Mean absolute covariance change of the last sweep (``None`` when no
        sweep ran).
    """

    covariance: np.ndarray
    precision: np.ndarray
    n_iter: int
    converged: bool
    warm_started: bool = False
    final_change: float | None = None


def graphical_lasso(
    data_or_cov: np.ndarray,
    alpha: float = 0.05,
    from_covariance: bool = False,
    max_iter: int = 100,
    tol: float = 1e-4,
    shrinkage: float = 0.05,
    warm_start: GraphicalLassoResult | None = None,
    warm_start_map: np.ndarray | None = None,
) -> GraphicalLassoResult:
    """Estimate a sparse precision matrix with an L1 penalty *alpha*.

    Parameters
    ----------
    data_or_cov:
        Either a data matrix ``(n_samples, n_features)`` or, when
        ``from_covariance=True``, a precomputed covariance matrix.
    alpha:
        L1 penalty on off-diagonal precision entries; larger values give
        sparser dependency graphs.
    from_covariance:
        Interpret the first argument as a covariance matrix directly.
    max_iter:
        Maximum number of outer block-coordinate sweeps.
    tol:
        Convergence threshold on the mean absolute change of the covariance
        estimate between sweeps, *relative to the iterate's own scale*
        (its mean absolute entry), so the stopping rule is invariant to the
        units of the data.
    shrinkage:
        Identity shrinkage applied to the empirical covariance for numerical
        stability (ignored when ``from_covariance=True``).
    warm_start:
        A previous :class:`GraphicalLassoResult` to seed the covariance and
        precision iterates from.  The problem is convex, so the solution is
        unchanged — a near-solution initialiser (e.g. the previous ActiveDP
        iteration's estimate) just needs far fewer sweeps to reach it.
    warm_start_map:
        For each variable of the *new* problem, the variable index in the
        warm-start result it corresponds to, or ``-1`` for a variable the
        previous result did not cover.  ``None`` means the identity map
        (requires matching dimensions).  Mapped pairs seed their covariance
        and precision entries from the previous estimate; pairs involving a
        new variable keep the cold covariance and a zero precision entry.
        An inapplicable payload (wrong dimensions, out-of-range map, a
        non-finite mapped entry, an indefinite seeded covariance) degrades
        to a cold start, never raises.  Block descent from a warm start can
        still diverge; a warm-started solve that ends non-finite is
        discarded (its overflow warnings with it) and the problem is solved
        cold.  A finite warm solve is kept, converged or not.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if from_covariance:
        emp_cov = np.asarray(data_or_cov, dtype=float)
        if emp_cov.ndim != 2 or emp_cov.shape[0] != emp_cov.shape[1]:
            raise ValueError("covariance matrix must be square")
    else:
        emp_cov = empirical_covariance(data_or_cov, shrinkage=shrinkage)

    p = emp_cov.shape[0]
    if p == 1:
        precision = np.array([[1.0 / max(emp_cov[0, 0], 1e-12)]])
        return GraphicalLassoResult(emp_cov.copy(), precision, 0, True)

    seed = _warm_start_seed(emp_cov, alpha, warm_start, warm_start_map)
    if seed is not None:
        # Discarded attempts must not leak their overflow warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = _solve(emp_cov, alpha, max_iter, tol, *seed, warm_started=True)
        if is_finite(result):
            return result
    covariance = _cold_covariance(emp_cov, alpha)
    # Unconnected variables seed their lasso from zero.
    precision = np.diag(1.0 / np.maximum(np.diag(covariance), 1e-12))
    return _solve(emp_cov, alpha, max_iter, tol, covariance, precision, warm_started=False)


def is_finite(result: GraphicalLassoResult) -> bool:
    """Whether both estimates of *result* are finite (usable as a warm start)."""
    return bool(np.isfinite(result.covariance).all() and np.isfinite(result.precision).all())


def _solve(emp_cov, alpha, max_iter, tol, covariance, precision, warm_started):
    """Block descent from the given iterates, as a :class:`GraphicalLassoResult`."""
    covariance, precision, n_iter, converged, final_change = glasso_block_sweeps(
        covariance,
        precision,
        emp_cov,
        alpha,
        max_iter=max_iter,
        tol=tol,
    )
    precision = 0.5 * (precision + precision.T)
    return GraphicalLassoResult(
        covariance, precision, n_iter, converged, warm_started, final_change
    )


def _cold_covariance(emp_cov: np.ndarray, alpha: float) -> np.ndarray:
    """The cold covariance iterate: the data's, diagonal inflated by *alpha*."""
    covariance = emp_cov.copy()
    # Keep the diagonal slightly inflated so every sub-block stays invertible.
    covariance.flat[:: covariance.shape[0] + 1] += alpha
    return covariance


def _warm_start_seed(
    emp_cov: np.ndarray,
    alpha: float,
    warm_start: GraphicalLassoResult | None,
    warm_start_map: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Warm ``(covariance, precision)`` iterates, or ``None`` to start cold."""
    p = emp_cov.shape[0]
    pairs = _warm_start_pairs(p, warm_start, warm_start_map)
    if pairs is None:
        return None
    new_pairs, previous_pairs = pairs
    carried_covariance = np.asarray(warm_start.covariance)[previous_pairs]
    carried_precision = np.asarray(warm_start.precision)[previous_pairs]
    if not (np.isfinite(carried_covariance).all() and np.isfinite(carried_precision).all()):
        return None
    covariance = _cold_covariance(emp_cov, alpha)
    covariance[new_pairs] = carried_covariance
    # The diagonal is a fixed constraint of the glasso solution
    # (W_jj = S_jj + alpha), so it always comes from the *new* data.
    covariance.flat[:: p + 1] = emp_cov.flat[:: p + 1] + alpha
    # A previous estimate's off-diagonal block combined with the new
    # diagonal can be indefinite (the block coordinate descent diverges
    # on an indefinite iterate); only a positive-definite seed is usable.
    if np.linalg.eigvalsh(covariance).min() <= 1e-10:
        return None
    # New variables seed their lasso from zero; the mapped pairs keep the
    # previous precision's sparsity.
    precision = np.diag(1.0 / np.maximum(np.diag(covariance), 1e-12))
    precision[new_pairs] = carried_precision
    return covariance, precision


def _warm_start_pairs(
    p: int,
    warm_start: GraphicalLassoResult | None,
    warm_start_map: np.ndarray | None,
) -> tuple[tuple, tuple] | None:
    """Index pairs ``(new, previous)`` carrying a warm start into *p* variables.

    ``estimate[new] = warm_start_estimate[previous]`` copies the mapped
    block of either iterate.  Returns ``None`` when the payload is
    inapplicable, which leaves the cold initialisation untouched.
    """
    if warm_start is None:
        return None
    previous = np.asarray(warm_start.covariance, dtype=float)
    if previous.ndim != 2 or previous.shape[0] != previous.shape[1]:
        return None
    p_prev = previous.shape[0]
    if warm_start_map is None:
        # The implicit identity map is only meaningful for identical
        # dimensions; seeding a smaller problem positionally would silently
        # pair the wrong variables.
        if p_prev != p:
            return None
        column_map = np.arange(p)
    else:
        column_map = np.asarray(warm_start_map, dtype=int)
    if column_map.shape != (p,) or np.any(column_map >= p_prev):
        return None
    mapped = np.flatnonzero(column_map >= 0)
    if mapped.size < 2:
        # Warm information lives in the off-diagonal entries; fewer than two
        # mapped variables carry none.
        return None
    return np.ix_(mapped, mapped), np.ix_(column_map[mapped], column_map[mapped])
