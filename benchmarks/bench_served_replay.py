"""Benchmark a served cold request: one end-model fit against the two-fit oracle.

Builds seeded serve-shaped cold requests — youtube@1.0, 20 distinct wire LFs
that a seeded ``SimulatedUser`` writes for random query instances, one
evaluation at the end, as ``perfbench``'s ``serve-mixed`` sends them — and
runs each through the shipped ``lfset`` trial and through the oracle in
``tests/baselines/reference_two_fit.py``, which aggregates and fits the end
model again for the export and predicts the label model's validation
posterior at every refit.  Both must produce identical payload bytes and
identical run histories.  The walls and end-model fit counts of both paths
are merged into the repo-root ``BENCH_core.json`` via
``benchmarks/record.py``; there is no speed-up assert, so the bench checks
identity on any runner.

    PYTHONPATH=src python -m pytest benchmarks/bench_served_replay.py -q -s
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "baselines"))

from reference_two_fit import two_fit_pipelines  # noqa: E402

from repro.datasets import load_dataset  # noqa: E402
from repro.labeling.wire import lf_to_wire  # noqa: E402
from repro.models.logistic_regression import LogisticRegression  # noqa: E402
from repro.runner.executor import run_trial_on_split  # noqa: E402
from repro.serving.schemas import canonical_json, label_payload, parse_label_request  # noqa: E402
from repro.simulation.simulated_user import SimulatedUser  # noqa: E402

DATASET = "youtube"
SCALE = 1.0
POOL_SEED = 1
POOL_SIZE = 60
LFS_PER_REQUEST = 20
REQUESTS = 8


def _wire_pool() -> list[dict]:
    """Distinct wire LFs a seeded simulated user writes for random queries."""
    train = load_dataset(DATASET, scale=SCALE, random_state=POOL_SEED).train
    user = SimulatedUser(train, random_state=POOL_SEED)
    rng = random.Random(f"pool:{POOL_SEED}")
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        lf = user.design_lf(rng.randrange(len(train)))
        if lf is None:
            continue
        wire = lf_to_wire(lf)
        token = json.dumps(wire, sort_keys=True)
        if token not in seen:
            seen.add(token)
            pool.append(wire)
    return pool


class _FitCounter:
    """Counts ``LogisticRegression.fit`` calls while active."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = LogisticRegression.fit

        def counted(model, *args, **kwargs):
            self.calls += 1
            return original(model, *args, **kwargs)

        monkeypatch.setattr(LogisticRegression, "fit", counted)


def _run(spec, split):
    """One cold request's trial on a generated split, timed."""
    start = time.perf_counter()
    history = run_trial_on_split(
        spec.framework, split, spec.protocol, spec.seed, spec.pipeline_kwargs
    )
    return history, time.perf_counter() - start


def test_served_payloads_match_the_two_fit_oracle(bench_record, monkeypatch):
    """Identical payload bytes and histories; both walls recorded."""
    pool = _wire_pool()
    picks = random.Random("served-replay")
    counter = _FitCounter(monkeypatch)
    walls = {"shipped_s": 0.0, "reference_s": 0.0}
    fits = {"shipped": 0, "reference": 0}
    for number in range(REQUESTS):
        body = {
            "dataset": DATASET,
            "lfs": [pool[i] for i in picks.sample(range(POOL_SIZE), LFS_PER_REQUEST)],
            "seed": 1000 + number,
            "scale": SCALE,
        }
        spec = parse_label_request(body)
        split = load_dataset(DATASET, scale=SCALE, random_state=spec.seed)

        before = counter.calls
        history, shipped_s = _run(spec, split)
        fits["shipped"] += counter.calls - before
        before = counter.calls
        with two_fit_pipelines():
            expected, reference_s = _run(spec, split)
        fits["reference"] += counter.calls - before
        walls["shipped_s"] += shipped_s
        walls["reference_s"] += reference_s

        assert canonical_json(label_payload(spec, history)) == canonical_json(
            label_payload(spec, expected)
        ), f"request {number}"
        assert [dataclasses.asdict(r) for r in history.records] == [
            dataclasses.asdict(r) for r in expected.records
        ], f"request {number}"

    speedup = walls["reference_s"] / walls["shipped_s"]
    print(
        f"\nserved replay: {REQUESTS} cold requests ({DATASET}@{SCALE}, "
        f"{LFS_PER_REQUEST} LFs each), identical payloads; end-model fits "
        f"{fits['shipped']} vs {fits['reference']}; shipped {walls['shipped_s']:.3f}s "
        f"vs reference {walls['reference_s']:.3f}s = {speedup:.2f}x"
    )
    bench_record("served_replay", {
        "dataset": DATASET,
        "scale": SCALE,
        "requests": REQUESTS,
        "lfs_per_request": LFS_PER_REQUEST,
        "end_model_fits": fits,
        **walls,
        "speedup": speedup,
    })
    assert fits["shipped"] == REQUESTS
    assert fits["reference"] == 2 * REQUESTS
