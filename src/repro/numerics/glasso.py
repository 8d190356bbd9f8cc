"""Graphical-lasso block updates and the inner lasso solver.

The numeric body of :func:`repro.graphical.glasso.graphical_lasso` — the
block coordinate-descent sweeps and the per-column lasso regressions — as
plain numpy functions.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv


def feature_sign(gram, linear, alpha: float, start, max_steps: int, exclude: int):
    """Minimise ``0.5 w^T Q w - b^T w + alpha * ||w||_1`` by feature-sign search.

    The active-set method of Lee, Battle, Raina and Ng (*Efficient sparse
    coding algorithms*, NIPS 2007), with ``w[exclude]`` held at zero.  From
    the support and signs of *start*, each step solves the stationarity
    conditions on the support ``S`` exactly,
    ``Q[S, S] w_S = b_S - alpha * sign_S``.  If a sign flips, a discrete line
    search moves to the lowest objective among the solution and every zero
    crossing on the way to it, drops the zeroed coordinates and solves
    again.  Otherwise the point satisfies the KKT conditions when
    ``|b - Q w| <= alpha`` off the support; if not, the largest violator
    joins the support with the sign of its residual.

    Returns the KKT point as a new array, or ``None`` when a support solve is
    singular or non-finite or *max_steps* solves do not reach a KKT point.
    *start* is not modified.  The solve is an LU factorisation: scaling
    ``Q``, ``b`` and ``alpha`` by a power of two scales every step exactly,
    which a Cholesky factor's square roots would not.
    """
    weights = np.array(start, dtype=float)
    found = _feature_sign(
        np.asarray(gram, dtype=float), np.asarray(linear, dtype=float),
        alpha, weights, max_steps, exclude,
    )
    return None if found is None else found[0]


def _feature_sign(gram, linear, alpha, weights, max_steps, exclude):
    """:func:`feature_sign` on float arrays, overwriting the seed *weights*.

    Returns ``(weights, product)`` or ``None``.  ``product`` is
    ``gram[:, S] @ w_S`` from the last KKT check when the final support
    ``S`` is in index order, so it is bit for bit the product
    ``gram[:, flatnonzero(w)] @ w[flatnonzero(w)]`` a caller would form;
    otherwise it is ``None``.  Each step gathers ``gram[:, S]`` once: its
    ``S`` rows are the LU block (the same values in the same C layout as
    ``gram[S[:, None], S]``) and the whole gather is the residual's product.
    """
    weights[exclude] = 0.0
    support = weights.nonzero()[0]
    signs = np.sign(weights[support])
    # A support from nonzero() is in index order; appending a violator below
    # the last index breaks that (dropping coordinates never restores it
    # here, which only costs the caller a recomputed product).
    ordered = True
    for _ in range(max_steps):
        columns = gram[:, support]
        block = columns[support]
        target = linear[support]
        if support.size:
            _, _, solution, info = dgesv(block, target - alpha * signs)
            if info != 0 or not np.isfinite(solution).all():
                return None
        else:
            solution = np.zeros(0)
        flipped = np.sign(solution) != signs
        if flipped.any():
            current = weights[support]
            crossing = (flipped & (current != 0.0)).nonzero()[0]
            fractions = current[crossing] / (current[crossing] - solution[crossing])
            candidates = np.concatenate(
                (solution[None], current + fractions[:, None] * (solution - current))
            )
            candidates[np.arange(1, crossing.size + 1), crossing] = 0.0
            objective = (
                0.5 * np.einsum("ij,ij->i", candidates @ block, candidates)
                - candidates @ target
                + alpha * np.abs(candidates).sum(axis=1)
            )
            weights[support] = candidates[objective.argmin()]
            support = support[weights[support] != 0.0]
            signs = np.sign(weights[support])
            continue
        weights[support] = solution
        product = columns @ solution
        residual = linear - product
        residual[support] = 0.0
        residual[exclude] = 0.0
        violator = int(np.abs(residual).argmax())
        if abs(residual[violator]) <= alpha:
            return weights, product if ordered else None
        if support.size and violator < support[-1]:
            ordered = False
        support = np.concatenate((support, (violator,)))
        signs = np.concatenate((signs, (np.sign(residual[violator]),)))
    return None


def lasso_cd(
    gram,
    linear,
    alpha: float,
    max_iter: int = 200,
    tol: float = 1e-6,
    initial=None,
):
    """Minimise ``0.5 w^T Q w - b^T w + alpha * ||w||_1`` by coordinate descent.

    Arguments mirror :func:`repro.graphical.lasso.lasso_coordinate_descent`,
    which validates its inputs and then delegates here.

    The gradient ``Q w`` is maintained across coordinate updates, so a
    coordinate that stays at zero costs no vector operation.  After every
    sweep that has not converged, the stationarity conditions restricted to
    the sweep's nonzero support ``S`` are solved exactly
    (``Q[S,S] w_S = b_S - alpha * sign(w_S)``); the solution replaces the
    iterate only when it keeps every sign.  Convergence is still a full
    coordinate sweep whose largest update is below *tol*.
    """
    gram = np.asarray(gram, dtype=float)
    linear = np.asarray(linear, dtype=float)
    p = int(gram.shape[0])
    if initial is None:
        w = [0.0] * p
    else:
        w = np.asarray(initial, dtype=float).tolist()
    diag = gram.diagonal().tolist()
    divisor = [d if d > 0.0 else 1e-12 for d in diag]
    target = linear.tolist()
    rows = list(gram)
    grad = gram @ np.array(w)

    for _ in range(max_iter):
        max_update = 0.0
        for j in range(p):
            old = w[j]
            residual = target[j] - grad.item(j) + diag[j] * old
            if residual > alpha:
                new = (residual - alpha) / divisor[j]
            elif residual < -alpha:
                new = (residual + alpha) / divisor[j]
            else:
                new = 0.0
            delta = new - old
            if delta != 0.0:
                w[j] = new
                grad += delta * rows[j]
                if abs(delta) > max_update:
                    max_update = abs(delta)
        if max_update < tol:
            break
        support = [j for j in range(p) if w[j] != 0.0]
        if not support:
            continue
        signs = np.sign([w[j] for j in support])
        try:
            exact = np.linalg.solve(
                gram[np.ix_(support, support)],
                linear[support] - alpha * signs,
            )
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(exact).all() and np.array_equal(np.sign(exact), signs):
            for j, value in zip(support, exact.tolist()):
                w[j] = value
            grad = gram[:, support] @ exact
    return np.array(w)


def glasso_block_sweeps(
    covariance,
    precision,
    emp_cov,
    alpha: float,
    max_iter: int,
    tol: float,
    lasso_max_iter: int = 200,
    lasso_tol: float = 1e-6,
):
    """Run the outer block coordinate-descent loop of the graphical lasso.

    Each sweep updates every row/column of the covariance iterate by a lasso
    regression on the remaining block and recovers the matching precision
    entries.  Convergence is declared when the mean absolute change of the
    covariance between sweeps falls below *tol* times the iterate's own
    scale (its mean absolute entry), which makes the stopping rule
    invariant to the covariance's units and lets warm-started
    near-solutions stop after a single sweep.

    Column j's lasso starts from ``-precision[rest, j] / precision[j, j]``,
    so the *precision* passed in seeds the first sweep and every later
    sweep resumes from the previous one's solution.  It is solved by
    :func:`feature_sign` on the full covariance with variable j held at
    zero; only when that search gives up does :func:`lasso_cd` solve it on
    the explicit ``rest`` x ``rest`` block.  With ``lasso_max_iter == 0``
    every lasso keeps its seed.

    Returns ``(covariance, precision, n_iter, converged, final_change)``;
    ``final_change`` is the last sweep's mean absolute covariance change
    (``None`` when ``max_iter == 0``).
    """
    covariance = np.asarray(covariance, dtype=float)
    precision = np.asarray(precision, dtype=float)
    emp_cov = np.asarray(emp_cov, dtype=float)
    p = int(covariance.shape[0])
    # Row j of emp_rows is emp_cov's column j, contiguous; row j of rests is
    # every index but j.
    emp_rows = np.ascontiguousarray(emp_cov.T)
    steps = np.arange(p - 1)
    rests = steps + (steps >= np.arange(p)[:, None])

    converged = False
    n_iter = 0
    final_change = None
    for n_iter in range(1, max_iter + 1):
        previous = covariance.copy()
        for j in range(p):
            rest = rests[j]
            # Warm start from the carried precision (Friedman, Hastie and
            # Tibshirani): beta = -theta_12 / theta_22, which after the
            # first sweep is the previous sweep's solution for this column.
            if precision[j, j] > 0.0:
                start = -precision[:, j] / precision[j, j]
            else:
                start = np.zeros(p)
            found = None
            if lasso_max_iter > 0:
                found = _feature_sign(
                    covariance, emp_rows[j], alpha, start.copy(), 2 * p + 4, exclude=j
                )
            if found is None:
                sub_cov = covariance[rest[:, None], rest[None, :]]
                beta = lasso_cd(
                    sub_cov, emp_rows[j][rest], alpha, max_iter=lasso_max_iter,
                    tol=lasso_tol, initial=start[rest],
                )
                column = sub_cov @ beta
            else:
                full, product = found
                if product is None:
                    support = full.nonzero()[0]
                    product = covariance[:, support] @ full[support]
                beta = full[rest]
                column = product[rest]
            covariance[rest, j] = column
            covariance[j, rest] = column

            # Recover the corresponding precision entries (standard glasso
            # update): theta_jj = 1 / (w_jj - w_12^T beta).
            denom = covariance[j, j] - column @ beta
            denom = max(denom, 1e-12)
            precision[j, j] = 1.0 / denom
            entries = -beta / denom
            precision[rest, j] = entries
            precision[j, rest] = entries
        change = np.mean(np.abs(covariance - previous))
        final_change = float(change)
        threshold = tol * max(float(np.mean(np.abs(previous))), 1e-12)
        if change < threshold:
            converged = True
            break

    return covariance, precision, n_iter, converged, final_change
