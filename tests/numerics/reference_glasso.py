"""Two earlier graphical-lasso solvers, kept as test oracles.

The historical solver is a verbatim copy of ``repro.numerics.glasso``'s
plain coordinate-descent ``lasso_cd`` (every column's lasso restarting from
zero, one ``gram[j] @ weights`` product per coordinate update) and
``glasso_block_sweeps``.  The production solver must select the same Markov
blankets as this one.

The feature-sign oracle (:func:`feature_sign`, :func:`feature_sign_sweeps`,
:func:`graphical_lasso_feature_sign`) is the production active-set solver
as it stood before its per-solve interpreter work was trimmed.  The
production solver must match it bit for bit.  The tests and
``benchmarks/bench_glasso_replay.py`` replay calls through all three.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from repro.numerics.glasso import lasso_cd as production_lasso_cd


def _soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


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
    """
    gram = np.asarray(gram, dtype=float)
    linear = np.asarray(linear, dtype=float)
    p = int(gram.shape[0])
    if initial is None:
        weights = np.zeros(p)
    else:
        weights = np.asarray(initial, dtype=float).copy()
    diag = np.diagonal(gram)
    diagonal = np.where(diag <= 0.0, 1e-12, diag)

    for _ in range(max_iter):
        max_update = 0.0
        for j in range(p):
            residual = linear[j] - gram[j] @ weights + gram[j, j] * weights[j]
            new_weight = _soft_threshold(residual, alpha) / diagonal[j]
            update = abs(new_weight - weights[j])
            weights[j] = new_weight
            if update > max_update:
                max_update = update
        if max_update < tol:
            break
    return weights


def glasso_block_sweeps(
    covariance,
    precision,
    emp_cov,
    alpha: float,
    max_iter: int,
    tol: float,
    early_stop: bool = False,
    lasso_max_iter: int = 200,
    lasso_tol: float = 1e-6,
):
    """Run the outer block coordinate-descent loop of the graphical lasso.

    Each sweep updates every row/column of the covariance iterate by a lasso
    regression on the remaining block and recovers the matching precision
    entries.  Convergence is declared on the mean absolute change of the
    covariance between sweeps — against the fixed threshold *tol* by
    default (the historical semantics), or, with ``early_stop=True``,
    against ``tol`` *relative to the iterate's own scale* (mean absolute
    entry), which makes the stopping rule invariant to the covariance's
    units and lets warm-started near-solutions stop after a single sweep.

    Returns ``(covariance, precision, n_iter, converged, final_change)``;
    ``final_change`` is the last sweep's mean absolute covariance change
    (``None`` when ``max_iter == 0``).
    """
    covariance = np.asarray(covariance, dtype=float)
    precision = np.asarray(precision, dtype=float)
    emp_cov = np.asarray(emp_cov, dtype=float)
    p = int(covariance.shape[0])
    rest_indices = [np.delete(np.arange(p), j) for j in range(p)]

    converged = False
    n_iter = 0
    final_change = None
    for n_iter in range(1, max_iter + 1):
        previous = covariance.copy()
        for j in range(p):
            rest = rest_indices[j]
            sub_cov = covariance[rest[:, None], rest[None, :]]
            target = emp_cov[rest, j]
            beta = lasso_cd(
                sub_cov, target, alpha, max_iter=lasso_max_iter, tol=lasso_tol,
            )
            column = sub_cov @ beta
            covariance[rest, j] = column
            covariance[j, rest] = column

            # Recover the corresponding precision entries (standard glasso
            # update): theta_jj = 1 / (w_jj - w_12^T beta).
            denom = covariance[j, j] - covariance[rest, j] @ beta
            denom = max(denom, 1e-12)
            precision[j, j] = 1.0 / denom
            precision[rest, j] = -beta / denom
            precision[j, rest] = precision[rest, j]
        change = np.mean(np.abs(covariance - previous))
        final_change = float(change)
        threshold = tol
        if early_stop:
            threshold = tol * max(float(np.mean(np.abs(previous))), 1e-12)
        if change < threshold:
            converged = True
            break

    return covariance, precision, n_iter, converged, final_change


def graphical_lasso(
    data_or_cov,
    alpha=0.05,
    from_covariance=False,
    max_iter=100,
    tol=1e-4,
    shrinkage=0.05,
    warm_start=None,
    warm_start_map=None,
    early_stop=False,
):
    """The historical ``repro.graphical.glasso.graphical_lasso``.

    Same arguments and result type; the precision iterate always starts
    from ``pinv`` of the seeded covariance and the sweeps are this module's.
    """
    from repro.graphical.covariance import empirical_covariance
    from repro.graphical.glasso import GraphicalLassoResult

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

    covariance = emp_cov.copy()
    covariance.flat[:: p + 1] = emp_cov.flat[:: p + 1] + alpha
    warm_started = _seed_covariance(covariance, warm_start, warm_start_map)
    if warm_started:
        covariance.flat[:: p + 1] = emp_cov.flat[:: p + 1] + alpha
        if np.linalg.eigvalsh(covariance).min() <= 1e-10:
            covariance = emp_cov.copy()
            covariance.flat[:: p + 1] = emp_cov.flat[:: p + 1] + alpha
            warm_started = False
    precision = np.linalg.pinv(covariance)

    covariance, precision, n_iter, converged, final_change = glasso_block_sweeps(
        covariance,
        precision,
        emp_cov,
        alpha,
        max_iter=max_iter,
        tol=tol,
        early_stop=early_stop,
    )

    precision = 0.5 * (precision + precision.T)
    return GraphicalLassoResult(
        covariance, precision, n_iter, converged, warm_started, final_change
    )


def _seed_covariance(covariance, warm_start, warm_start_map) -> bool:
    if warm_start is None:
        return False
    previous = np.asarray(warm_start.covariance, dtype=float)
    if previous.ndim != 2 or previous.shape[0] != previous.shape[1]:
        return False
    p = covariance.shape[0]
    p_prev = previous.shape[0]
    if warm_start_map is None:
        if p_prev != p:
            return False
        column_map = np.arange(p)
    else:
        column_map = np.asarray(warm_start_map, dtype=int)
    if column_map.shape != (p,) or np.any(column_map >= p_prev):
        return False
    mapped = np.flatnonzero(column_map >= 0)
    if mapped.size < 2:
        return False
    covariance[np.ix_(mapped, mapped)] = previous[
        np.ix_(column_map[mapped], column_map[mapped])
    ]
    return True


# ----------------------------------------------------- feature-sign oracle
# A verbatim copy of ``repro.numerics.glasso``'s feature-sign search and the
# block sweeps around it, from before their interpreter work was trimmed (one
# column gather per LU solve, the KKT product reused as the column update).
# The production sweeps must match these bit for bit: same covariance, same
# precision, same sweep count and final change on every call.  The
# ``lasso_cd`` fallback was not touched, so the copy calls the production one.


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
    gram = np.asarray(gram, dtype=float)
    linear = np.asarray(linear, dtype=float)
    weights = np.array(start, dtype=float)
    weights[exclude] = 0.0
    support = np.flatnonzero(weights)
    signs = np.sign(weights[support])
    for _ in range(max_steps):
        block = gram[support[:, None], support]
        solution = np.zeros(0)
        if support.size:
            _, _, solution, info = dgesv(block, linear[support] - alpha * signs)
            if info != 0 or not np.isfinite(solution).all():
                return None
        flipped = np.sign(solution) != signs
        if flipped.any():
            current = weights[support]
            crossing = np.flatnonzero(flipped & (current != 0.0))
            fractions = current[crossing] / (current[crossing] - solution[crossing])
            candidates = np.vstack(
                [solution, current + fractions[:, None] * (solution - current)]
            )
            candidates[np.arange(1, crossing.size + 1), crossing] = 0.0
            objective = (
                0.5 * np.einsum("ij,ij->i", candidates @ block, candidates)
                - candidates @ linear[support]
                + alpha * np.abs(candidates).sum(axis=1)
            )
            weights[support] = candidates[np.argmin(objective)]
            support = support[weights[support] != 0.0]
            signs = np.sign(weights[support])
            continue
        weights[support] = solution
        residual = linear - gram[:, support] @ solution
        residual[support] = 0.0
        residual[exclude] = 0.0
        violator = int(np.argmax(np.abs(residual)))
        if abs(residual[violator]) <= alpha:
            return weights
        support = np.append(support, violator)
        signs = np.append(signs, np.sign(residual[violator]))
    return None


def feature_sign_sweeps(
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
    rest_indices = [np.delete(np.arange(p), j) for j in range(p)]

    converged = False
    n_iter = 0
    final_change = None
    for n_iter in range(1, max_iter + 1):
        previous = covariance.copy()
        for j in range(p):
            rest = rest_indices[j]
            # Warm start from the carried precision (Friedman, Hastie and
            # Tibshirani): beta = -theta_12 / theta_22, which after the
            # first sweep is the previous sweep's solution for this column.
            start = np.zeros(p)
            if precision[j, j] > 0.0:
                start = -precision[:, j] / precision[j, j]
            full = None
            if lasso_max_iter > 0:
                full = feature_sign(
                    covariance, emp_cov[:, j], alpha, start, 2 * p + 4, exclude=j
                )
            if full is None:
                sub_cov = covariance[rest[:, None], rest[None, :]]
                beta = production_lasso_cd(
                    sub_cov, emp_cov[rest, j], alpha, max_iter=lasso_max_iter,
                    tol=lasso_tol, initial=start[rest],
                )
                column = sub_cov @ beta
            else:
                support = np.flatnonzero(full)
                beta = full[rest]
                column = (covariance[:, support] @ full[support])[rest]
            covariance[rest, j] = column
            covariance[j, rest] = column

            # Recover the corresponding precision entries (standard glasso
            # update): theta_jj = 1 / (w_jj - w_12^T beta).
            denom = covariance[j, j] - covariance[rest, j] @ beta
            denom = max(denom, 1e-12)
            precision[j, j] = 1.0 / denom
            precision[rest, j] = -beta / denom
            precision[j, rest] = precision[rest, j]
        change = np.mean(np.abs(covariance - previous))
        final_change = float(change)
        threshold = tol * max(float(np.mean(np.abs(previous))), 1e-12)
        if change < threshold:
            converged = True
            break

    return covariance, precision, n_iter, converged, final_change


def graphical_lasso_feature_sign(*args, **kwargs):
    """``repro.graphical.glasso.graphical_lasso`` run on :func:`feature_sign_sweeps`."""
    import repro.graphical.glasso as glasso

    sweeps = glasso.glasso_block_sweeps
    glasso.glasso_block_sweeps = feature_sign_sweeps
    try:
        return glasso.graphical_lasso(*args, **kwargs)
    finally:
        glasso.glasso_block_sweeps = sweeps


def record_glasso_calls(seed: int, scale: float, iterations: int) -> list[tuple[tuple, dict]]:
    """Every ``graphical_lasso`` call of one seeded ``activedp`` youtube trial.

    Returns the ``(args, kwargs)`` of each call LabelPick made, in order;
    replaying one through either solver reproduces that refit's problem,
    warm start included.
    """
    import repro.core.labelpick as labelpick
    from repro.experiments.protocol import EvaluationProtocol
    from repro.runner.executor import run_trial
    from repro.runner.spec import TrialSpec

    calls = []
    solver = labelpick.graphical_lasso

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solver(*args, **kwargs)

    protocol = EvaluationProtocol(
        n_iterations=iterations, eval_every=iterations, n_seeds=1, dataset_scale=scale
    )
    labelpick.graphical_lasso = recording
    try:
        run_trial(TrialSpec("activedp", "youtube", seed, protocol))
    finally:
        labelpick.graphical_lasso = solver
    return calls
