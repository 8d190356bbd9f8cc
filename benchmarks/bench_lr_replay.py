"""Benchmark LR: a trial's logistic-regression fits, replayed through two models.

Runs one seeded ``activedp`` imdb trial and records every
``LogisticRegression.fit`` call it makes (no fixture file: the sequence is
generated at bench time).  Each call is then replayed through the historical
model (``tests/models/reference_logistic.py``: a dense design and
``scipy.special.softmax`` on every fit) and through
:class:`repro.models.LogisticRegression`, which fits large sparse inputs over
a CSR design.  The end-model fits pass a row slice of the pool's CSR
(``Dataset.csr``); the historical model, which takes dense input only, is
timed on its ``toarray()``.  Every replayed model must predict the same labels on the
train, valid and test splits (the largest probability difference is
recorded); the production fits must also be at least
``REPRO_LR_REPLAY_MIN_SPEEDUP`` times faster over the replay (default 2.0;
``0`` checks prediction identity only, for noisy shared runners).  The trial
has the ``trial-wide`` shape: imdb@6.0, 30 iterations, the end model trained
every 5.  Both walls and the count of CSR fits are merged into the
repo-root ``BENCH_core.json`` via ``benchmarks/record.py``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "models"))

import numpy as np  # noqa: E402
import reference_logistic as reference  # noqa: E402
from scipy import sparse  # noqa: E402

from repro.models.logistic_regression import LogisticRegression, _design  # noqa: E402

SEED = 64  # the first trial-wide seed
SCALE = 6.0
ITERATIONS = 30
EVAL_EVERY = 5
MIN_SPEEDUP = float(os.environ.get("REPRO_LR_REPLAY_MIN_SPEEDUP", 2.0))


def _timed_fit(model_class, params, args, kwargs):
    if model_class is reference.LogisticRegression:
        args = tuple(arg.toarray() if sparse.issparse(arg) else arg for arg in args)
    model = model_class(**params)
    start = time.perf_counter()
    model.fit(*args, **kwargs)
    return model, time.perf_counter() - start


def test_replay_predicts_the_historical_labels_faster(bench_record):
    """Same predictions after every fit; the replay is MIN_SPEEDUP times faster."""
    split, calls = reference.record_lr_calls("imdb", SEED, SCALE, ITERATIONS, EVAL_EVERY)
    assert calls, "the trial never fit a logistic regression"

    walls = {"reference_s": 0.0, "production_s": 0.0}
    csr_fits = csr_inputs = 0
    max_proba_diff = 0.0
    for number, (params, args, kwargs) in enumerate(calls):
        expected, reference_s = _timed_fit(reference.LogisticRegression, params, args, kwargs)
        result, production_s = _timed_fit(LogisticRegression, params, args, kwargs)
        walls["reference_s"] += reference_s
        walls["production_s"] += production_s
        csr_fits += sparse.issparse(_design(args[0], params["fit_intercept"]))
        csr_inputs += sparse.issparse(args[0])

        for part in (split.train, split.valid, split.test):
            assert (result.predict(part.features) == expected.predict(part.features)).all(), (
                f"call {number} predicts different labels"
            )
            max_proba_diff = max(max_proba_diff, float(np.abs(
                result.predict_proba(part.features) - expected.predict_proba(part.features)
            ).max()))

    speedup = walls["reference_s"] / walls["production_s"]
    print(
        f"\nLR replay: {len(calls)} fits (imdb@{SCALE}, seed {SEED}, "
        f"{ITERATIONS} iterations), {csr_fits} over a CSR design "
        f"({csr_inputs} on CSR input), predictions "
        f"identical (probabilities within {max_proba_diff:.1e}); reference "
        f"{walls['reference_s']:.2f}s vs production {walls['production_s']:.2f}s "
        f"= {speedup:.1f}x"
    )
    bench_record("lr_replay", {
        "seed": SEED,
        "scale": SCALE,
        "n_iterations": ITERATIONS,
        "eval_every": EVAL_EVERY,
        "n_fits": len(calls),
        "csr_fits": csr_fits,
        "csr_input_fits": csr_inputs,
        "max_rows": max(args[0].shape[0] for _, args, _ in calls),
        **walls,
        "speedup": speedup,
        "max_proba_diff": max_proba_diff,
    })
    assert csr_fits, "no fit of the trial took the CSR design"
    assert csr_inputs, "no fit of the trial took a CSR input"
    assert speedup >= MIN_SPEEDUP
