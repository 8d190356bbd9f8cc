"""Benchmark EM: a trial's label-model calls, replayed through two EM paths.

Runs one seeded ``activedp`` imdb trial and records every label-model
``fit`` / ``fit_predict_proba`` / ``predict_proba`` call it makes (no
fixture file: the sequence is generated at bench time).  Each call is then
replayed through the full-row EM oracle (``tests/label_models/reference_em.py``:
every iteration touches every (instance, LF) cell) and through the
production models, which run EM over the matrix's distinct vote rows.  Every
replayed fit must take the same number of EM iterations, and every posterior
must agree with the oracle's within 1e-12; the production calls must also be
at least ``REPRO_EM_REPLAY_MIN_SPEEDUP`` times faster over the replay
(default 2.0; ``0`` checks identity only, for noisy shared runners).  Every
call is also replayed through the production model on the frozen MeTaL steps
(``tests/label_models/reference_metal_steps.py``), which must give the same
bits: posteriors, fitted parameters, losses and EM iteration counts.  The
trial has the ``trial-wide`` shape: imdb@6.0, seed 64, 30 iterations.  Both
walls and the pattern counts are merged into the repo-root
``BENCH_core.json`` via ``benchmarks/record.py``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "label_models"))

import numpy as np  # noqa: E402
import reference_em as reference  # noqa: E402
from reference_metal_steps import frozen_metal_steps  # noqa: E402

import repro.label_models as production  # noqa: E402
from repro.numerics.em import vote_patterns  # noqa: E402

SEED = 64  # the first trial-wide seed
SCALE = 6.0
ITERATIONS = 30
MIN_SPEEDUP = float(os.environ.get("REPRO_EM_REPLAY_MIN_SPEEDUP", 2.0))
ATOL = 1e-12


def _replay(kind, model, matrix, warm_start):
    """Run one recorded call on *model*; returns ``(posterior or None, seconds)``.

    The oracle inherits ``fit_predict_proba`` from the base class, where it is
    its own full-row ``fit`` followed by its own ``predict_proba``.
    """
    start = time.perf_counter()
    if kind == "fit":
        model.fit(matrix, warm_start=warm_start)
        result = None
    elif kind == "predict_proba":
        result = model.predict_proba(matrix)
    else:
        result = model.fit_predict_proba(matrix, warm_start=warm_start)
    return result, time.perf_counter() - start


def _assert_same_bits(number, kind, model, frozen, result, expected):
    """The same posterior and every fitted ``*_`` attribute, bit for bit."""
    assert (result is None) == (expected is None), f"call {number} ({kind})"
    if result is not None:
        assert np.array_equal(result, expected), f"call {number} ({kind}) posterior"
    fitted = {name for name in vars(model) if name.endswith("_")}
    assert fitted == {name for name in vars(frozen) if name.endswith("_")}
    for name in fitted:
        value, frozen_value = getattr(model, name), getattr(frozen, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, frozen_value), f"call {number} ({kind}) {name}"
        else:
            assert value == frozen_value, f"call {number} ({kind}) {name}"


def test_replay_matches_the_full_row_em_faster(bench_record):
    """Oracle iterations and posteriors within 1e-12; frozen steps' bits; faster."""
    calls = reference.record_label_model_calls("imdb", SEED, SCALE, ITERATIONS)
    assert calls, "the trial never called a label model"

    walls = {"reference_s": 0.0, "production_s": 0.0}
    fits = em_iterations = predictions = 0
    rows = patterns = 0
    max_proba_diff = 0.0
    models = None
    for number, (kind, name, params, matrix, warm_start) in enumerate(calls):
        if kind != "predict_proba":
            models = (
                getattr(reference, name)(**params),
                getattr(production, name)(**params),
                getattr(production, name)(**params),
            )
        expected, reference_s = _replay(kind, models[0], matrix, warm_start)
        result, production_s = _replay(kind, models[1], matrix, warm_start)
        with frozen_metal_steps():
            frozen, _ = _replay(kind, models[2], matrix, warm_start)
        _assert_same_bits(number, kind, models[1], models[2], result, frozen)
        walls["reference_s"] += reference_s
        walls["production_s"] += production_s
        rows += matrix.shape[0]
        patterns += len(vote_patterns(matrix, models[1].n_classes).counts)

        if kind != "predict_proba":
            fits += 1
            em_iterations += models[1].n_iter_
            assert models[1].n_iter_ == models[0].n_iter_, (
                f"call {number} ({kind}) took {models[1].n_iter_} EM iterations, "
                f"the oracle {models[0].n_iter_}"
            )
        if result is not None:
            predictions += 1
            diff = float(np.abs(result - expected).max()) if result.size else 0.0
            max_proba_diff = max(max_proba_diff, diff)
            assert diff <= ATOL, f"call {number} ({kind}) posteriors differ by {diff:.1e}"

    speedup = walls["reference_s"] / walls["production_s"]
    print(
        f"\nEM replay: {len(calls)} label-model calls (imdb@{SCALE}, seed {SEED}, "
        f"{ITERATIONS} iterations): {fits} fits, {em_iterations} EM iterations, "
        f"{predictions} posteriors within {max_proba_diff:.1e}, all bit-identical to "
        f"the frozen MeTaL steps; {rows} rows in "
        f"{patterns} vote patterns; reference {walls['reference_s']:.3f}s vs "
        f"production {walls['production_s']:.3f}s = {speedup:.1f}x"
    )
    bench_record("em_replay", {
        "seed": SEED,
        "scale": SCALE,
        "n_iterations": ITERATIONS,
        "n_calls": len(calls),
        "n_fits": fits,
        "em_iterations": em_iterations,
        "rows": rows,
        "patterns": patterns,
        **walls,
        "speedup": speedup,
        "max_proba_diff": max_proba_diff,
    })
    assert fits, "the trial never fit a label model"
    assert speedup >= MIN_SPEEDUP
