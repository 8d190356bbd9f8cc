"""A warm-started graphical lasso that diverges falls back to a cold solve.

The reproducer is a census trial whose LabelPick warm start overflows at
its 40th step: block descent from the carried estimate ends non-finite
(the cold solve of the same covariance converges in two sweeps).  Before
the fallback, LabelPick carried that NaN precision into the next step,
where ``eigvalsh`` raised ``LinAlgError``.
"""

import warnings

import numpy as np
import pytest

from repro.baselines.activedp import ActiveDPPipeline
from repro.core import labelpick
from repro.datasets import load_dataset
from repro.graphical import GraphicalLassoResult, graphical_lasso
from repro.graphical.glasso import _solve, _warm_start_seed, is_finite

SEED = 1216546553
STEPS = 50


def _assert_same_result(result, expected):
    np.testing.assert_array_equal(result.covariance, expected.covariance)
    np.testing.assert_array_equal(result.precision, expected.precision)
    assert (result.n_iter, result.converged, result.warm_started) == (
        expected.n_iter, expected.converged, expected.warm_started
    )


@pytest.mark.parametrize("estimate", ["covariance", "precision"])
def test_non_finite_warm_start_gives_the_cold_result(rng, estimate):
    X = rng.standard_normal((200, 4))
    previous = graphical_lasso(X, alpha=0.05)
    getattr(previous, estimate)[0, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = graphical_lasso(X, alpha=0.05, warm_start=previous)
    _assert_same_result(result, graphical_lasso(X, alpha=0.05))


def test_unmapped_non_finite_entries_do_not_block_a_warm_start(rng):
    X = rng.standard_normal((200, 4))
    previous = graphical_lasso(X, alpha=0.05)
    padded = GraphicalLassoResult(
        covariance=np.pad(previous.covariance, (0, 1), constant_values=np.nan),
        precision=np.pad(previous.precision, (0, 1), constant_values=np.nan),
        n_iter=previous.n_iter,
        converged=True,
    )
    result = graphical_lasso(
        X, alpha=0.05, warm_start=padded, warm_start_map=np.arange(4)
    )
    assert result.warm_started
    _assert_same_result(result, graphical_lasso(X, alpha=0.05, warm_start=previous))


@pytest.fixture(scope="module")
def census_run():
    """The reproducer stepped 50 times, with every glasso call and its result."""
    calls = []
    original = labelpick.graphical_lasso

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    labelpick.graphical_lasso = recorded
    carried = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline = ActiveDPPipeline(load_dataset("census", 0.3, SEED), random_state=SEED)
            for _ in range(STEPS):
                pipeline.step()
                carried.append(pipeline.framework.state.labelpick.glasso_result)
    finally:
        labelpick.graphical_lasso = original
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return pipeline, calls, carried, runtime


def test_the_reproducer_runs_fifty_steps_with_finite_estimates(census_run):
    pipeline, calls, carried, runtime = census_run
    assert pipeline.framework.iteration == STEPS
    assert all(is_finite(result) for _, _, result in calls)
    assert all(result is None or is_finite(result) for result in carried)
    assert runtime == []


def test_the_diverging_warm_solve_is_replaced_by_the_cold_one(census_run):
    _, calls, _, _ = census_run
    diverged = []
    for args, kwargs, result in calls:
        emp_cov = args[0]
        seed = _warm_start_seed(
            emp_cov, kwargs["alpha"], kwargs["warm_start"], kwargs["warm_start_map"]
        )
        if seed is None:
            continue
        with np.errstate(all="ignore"):
            attempt = _solve(
                emp_cov, kwargs["alpha"], kwargs["max_iter"], kwargs["tol"], *seed,
                warm_started=True,
            )
        if not is_finite(attempt):
            diverged.append((args, kwargs, result))
    assert len(diverged) == 1
    args, kwargs, result = diverged[0]
    cold = {**kwargs, "warm_start": None, "warm_start_map": None}
    _assert_same_result(result, graphical_lasso(*args, **cold))
    assert result.converged
