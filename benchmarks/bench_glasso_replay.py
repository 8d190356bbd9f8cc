"""Benchmark GLASSO: a trial's graphical-lasso calls, replayed through three solvers.

Runs one seeded ``activedp`` youtube trial and records every
``graphical_lasso`` call LabelPick makes (no fixture file: the sequence is
generated at bench time).  Each call is then replayed through the historical
solver (``tests/numerics/reference_glasso.py``: plain coordinate descent,
every column's lasso restarted from zero), through the feature-sign oracle
in the same file (the production solver before its per-solve interpreter
work was trimmed) and through :func:`repro.graphical.glasso.graphical_lasso`.
Every call must select the historical solver's Markov blanket of the label,
and must match the feature-sign oracle bit for bit: covariance, precision,
sweep count, convergence flag and final change.  The production solver must
also be at least ``REPRO_GLASSO_REPLAY_MIN_SPEEDUP`` times faster than the
historical one over the replay (default 6.0; ``0`` checks identity only,
for noisy shared runners).  The trial has the ``trial-labelpick`` shape:
youtube@1.0, 70 iterations.  The bench also counts the column lassos that
feature-sign search gave up on, which ``lasso_cd`` solved instead.  The
three walls and that count are merged into the repo-root
``BENCH_core.json`` via ``benchmarks/record.py``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "numerics"))

import numpy as np  # noqa: E402
import reference_glasso as reference  # noqa: E402

import repro.numerics.glasso as numerics_glasso  # noqa: E402
from repro.graphical.glasso import graphical_lasso  # noqa: E402
from repro.graphical.markov_blanket import markov_blanket  # noqa: E402

SEED = 64  # the trial-labelpick seed
SCALE = 1.0
ITERATIONS = 70
MIN_SPEEDUP = float(os.environ.get("REPRO_GLASSO_REPLAY_MIN_SPEEDUP", 6.0))


def _timed(solver, args, kwargs):
    start = time.perf_counter()
    result = solver(*args, **kwargs)
    return result, time.perf_counter() - start


def test_replay_selects_the_historical_blankets_faster(bench_record, monkeypatch):
    """Historical blankets and the oracle's bits on every call; MIN_SPEEDUP faster."""
    calls = reference.record_glasso_calls(SEED, SCALE, ITERATIONS)
    assert calls, "the trial never reached structure learning"

    # A sweep calls lasso_cd only for a column feature_sign gave up on.
    fallbacks = []
    lasso_cd = numerics_glasso.lasso_cd

    def counted(*args, **kwargs):
        fallbacks.append(args)
        return lasso_cd(*args, **kwargs)

    monkeypatch.setattr(numerics_glasso, "lasso_cd", counted)
    walls = {"reference_s": 0.0, "feature_sign_oracle_s": 0.0, "production_s": 0.0}
    column_lassos = 0
    for number, (args, kwargs) in enumerate(calls):
        # The oracle defaults to the historical absolute stopping rule; the
        # recorded calls ran under the relative rule, LabelPick's only one.
        expected, reference_s = _timed(
            reference.graphical_lasso, args, {**kwargs, "early_stop": True}
        )
        oracle, oracle_s = _timed(reference.graphical_lasso_feature_sign, args, kwargs)
        result, production_s = _timed(graphical_lasso, args, kwargs)
        walls["reference_s"] += reference_s
        walls["feature_sign_oracle_s"] += oracle_s
        walls["production_s"] += production_s
        column_lassos += result.n_iter * result.precision.shape[0]

        label = result.precision.shape[0] - 1
        assert markov_blanket(result.precision, label) == markov_blanket(
            expected.precision, label
        ), f"call {number} selected a different blanket"
        assert np.array_equal(result.covariance, oracle.covariance), f"call {number}"
        assert np.array_equal(result.precision, oracle.precision), f"call {number}"
        assert (result.n_iter, result.converged, result.final_change) == (
            oracle.n_iter, oracle.converged, oracle.final_change
        ), f"call {number}"

    speedup = walls["reference_s"] / walls["production_s"]
    print(
        f"\nglasso replay: {len(calls)} calls (youtube@{SCALE}, seed {SEED}, "
        f"{ITERATIONS} iterations), blankets identical, estimates bit-identical "
        f"to the feature-sign oracle; reference {walls['reference_s']:.2f}s vs "
        f"oracle {walls['feature_sign_oracle_s']:.2f}s vs production "
        f"{walls['production_s']:.2f}s = {speedup:.1f}x; {len(fallbacks)} of "
        f"{column_lassos} column lassos fell back to lasso_cd"
    )
    bench_record("glasso_replay", {
        "seed": SEED,
        "scale": SCALE,
        "n_iterations": ITERATIONS,
        "n_calls": len(calls),
        "max_variables": max(args[0].shape[1] for args, _ in calls),
        **walls,
        "speedup": speedup,
        "column_lassos": column_lassos,
        "lasso_cd_fallbacks": len(fallbacks),
    })
    assert speedup >= MIN_SPEEDUP
