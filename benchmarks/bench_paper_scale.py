"""Benchmark EXP-PS: paper-scale protocol runs, warm refits against a cold reference.

Runs the same ActiveDP trials twice: the shipped configuration through the
experiment engine, and the cold reference (``tests/core/reference_cold.py``:
the same framework with every label-model, LabelPick and AL-model refit
cold-started) in this process.  It reports wall-clock, total EM iterations
and the *warm-refit rate* (fraction of post-first fits that were
warm-started), and asserts that the headline metric stays within tolerance,
that the shipped warm starts actually engage, and that they spend no more EM
iterations than the cold reference.  When that EM gate fails it prints both
runs' per-fit EM iterations, and refits every warm fit's matrix of the
shipped run cold with the production model, printing warm and cold
``n_iter_`` of the same matrix side by side.

Scaled down by default so it completes in about a minute; environment
variables restore the paper's protocol:

* ``REPRO_PAPER_BENCH_FULL=1``        run ``EvaluationProtocol.paper()``
  verbatim (300 iterations x 5 seeds, full-size corpora);
* ``REPRO_PAPER_BENCH_ITERATIONS``    labelling budget (default 30);
* ``REPRO_PAPER_BENCH_SEEDS``         repetitions (default 1);
* ``REPRO_PAPER_BENCH_SCALE``         dataset scale factor (default 0.3);
* ``REPRO_PAPER_BENCH_MIN_WARM_RATE`` floor asserted on the shipped
  configuration's label-model warm-refit rate (default 0.5; CI uses it to
  guard against silent regressions to cold starts).

The engine's ``--workers`` / ``--cache-dir`` / ``--no-cache`` options apply
to the shipped run as in every other benchmark, as does ``--distributed
--spool-dir DIR`` to fan it out over ``python -m repro.runner.worker``
daemons.  The reference always runs in this process and is never cached: it
shares the shipped trials' content keys.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path[:0] = [str(TESTS / "core"), str(TESTS / "label_models")]

from reference_cold import cold_pipelines  # noqa: E402
from reference_em import record_label_model_calls  # noqa: E402

import repro.label_models as label_models  # noqa: E402
from repro.experiments import EvaluationProtocol  # noqa: E402
from repro.experiments.protocol import summarize_histories  # noqa: E402
from repro.runner import run_trial  # noqa: E402
from repro.runner.engine import GridJob, expand_jobs, run_experiment_grid  # noqa: E402

#: Headline-metric tolerance between the shipped and the cold-reference runs.
#: Warm starts change the optimisation trajectories, not the models, so the
#: average test accuracy must agree to within a few points.
ACCURACY_TOLERANCE = 0.05


@pytest.fixture(scope="module")
def paper_protocol() -> EvaluationProtocol:
    """The paper protocol, scaled down unless REPRO_PAPER_BENCH_FULL=1."""
    if os.environ.get("REPRO_PAPER_BENCH_FULL") == "1":
        return EvaluationProtocol.paper()
    iterations = int(os.environ.get("REPRO_PAPER_BENCH_ITERATIONS", 30))
    return EvaluationProtocol.paper(
        n_iterations=iterations,
        eval_every=max(iterations // 3, 1),
        n_seeds=int(os.environ.get("REPRO_PAPER_BENCH_SEEDS", 1)),
        dataset_scale=float(os.environ.get("REPRO_PAPER_BENCH_SCALE", 0.3)),
    )


def _final_records(results):
    """The last iteration record of every trial in a grid result dict."""
    for result in results.values():
        for history in result.histories:
            if history.records:
                yield history.records[-1]


def _total_em_iterations(results) -> int:
    """Sum the final cumulative EM-iteration counters across all trials."""
    return sum(
        record.lm_em_iterations
        for record in _final_records(results)
        if record.lm_em_iterations is not None
    )


def _em_iterations_per_fit(results) -> list[list[tuple[int, int]]]:
    """``(iteration, EM iterations)`` of every label-model fit, per trial.

    The records carry cumulative counters, so a fit's EM iterations are the
    difference of ``lm_em_iterations`` across an iteration whose
    ``lm_fits`` moved.
    """
    per_trial = []
    for result in results.values():
        for history in result.histories:
            fits, previous_fits, previous_em = [], 0, 0
            for record in history.records:
                n_fits = record.lm_fits or 0
                em_iterations = record.lm_em_iterations or 0
                if n_fits != previous_fits:
                    fits.append((record.iteration, em_iterations - previous_em))
                previous_fits, previous_em = n_fits, em_iterations
            per_trial.append(fits)
    return per_trial


def _print_em_iterations_per_fit(results) -> None:
    """Print each variant's per-fit EM iterations, trial by trial."""
    print("\nEM iterations per label-model fit (iteration:em_iterations):")
    for variant, result in results.items():
        for number, fits in enumerate(_em_iterations_per_fit(result)):
            listed = " ".join(f"{iteration}:{count}" for iteration, count in fits)
            print(f"  {variant:14s} trial {number}: {listed}")


def _print_warm_against_cold(job, protocol) -> None:
    """Refit every warm fit of the shipped trials cold on the same matrix.

    The trials' label-model calls are recorded again in this process; each
    warm fit is replayed warm and cold (no ``warm_start``) through the
    production model, so the two ``n_iter_`` compare the same matrix.
    """
    print("\nWarm fits refitted cold on the same matrix (fit:warm/cold EM iterations):")
    for _, spec in expand_jobs([job], protocol):
        calls = record_label_model_calls(
            spec.dataset, spec.seed, protocol.dataset_scale, protocol.n_iterations
        )
        fits = [call for call in calls if call[0] != "predict_proba"]
        pairs = []
        for number, (_, name, params, matrix, warm_start) in enumerate(fits, start=1):
            model_class = getattr(label_models, name)
            warm = model_class(**params).fit(matrix, warm_start=warm_start)
            if warm.warm_started_:
                cold = model_class(**params).fit(matrix)
                pairs.append((number, warm.n_iter_, cold.n_iter_))
        listed = " ".join(f"{number}:{warm}/{cold}" for number, warm, cold in pairs)
        print(f"  seed {spec.seed}: {listed}")
        print(
            f"  seed {spec.seed}: warm > cold in {sum(w > c for _, w, c in pairs)} of "
            f"{len(pairs)} warm fits; EM iterations warm {sum(w for _, w, _ in pairs)},"
            f" cold {sum(c for _, _, c in pairs)}"
        )


def _warm_rates(results) -> dict[str, tuple[float, int]]:
    """``(warm-refit rate, post-first fits)`` per model family.

    The rate is warm fits / post-first fits: the first fit of a run is
    necessarily cold, so it is excluded from the denominator — a rate of
    1.0 means *every* refit after the first was warm-started.  The
    denominator is returned too so callers can skip rate assertions for
    families that never refit (e.g. glasso on very short protocols).
    """
    totals = {"lm": [0, 0], "al": [0, 0], "glasso": [0, 0]}
    for record in _final_records(results):
        for family in totals:
            fits = getattr(record, f"{family}_fits")
            warm = getattr(record, f"{family}_warm_fits")
            if fits is None or warm is None:
                continue
            totals[family][0] += warm
            totals[family][1] += max(fits - 1, 0)
    return {
        family: ((warm / post_first if post_first else 0.0), post_first)
        for family, (warm, post_first) in totals.items()
    }


def test_paper_scale_warm_vs_cold(
    benchmark, paper_protocol, smallest_bench_dataset, bench_execution, bench_record
):
    """Warm-started refits must not cost EM work or move the headline metric."""
    job = GridJob(key="shipped", framework="activedp", dataset=smallest_bench_dataset)

    def run():
        start = time.perf_counter()
        shipped = run_experiment_grid([job], paper_protocol, bench_execution)
        timings = {"shipped": time.perf_counter() - start}
        start = time.perf_counter()
        with cold_pipelines():
            histories = [run_trial(spec) for _, spec in expand_jobs([job], paper_protocol)]
        reference = {
            job.key: summarize_histories(job.framework, job.dataset, histories)
        }
        timings["reference_cold"] = time.perf_counter() - start
        return {"shipped": shipped, "reference_cold": reference}, timings

    results, timings = benchmark.pedantic(run, rounds=1, iterations=1)

    summary = {}
    for variant, result in results.items():
        summary[variant] = {
            "accuracy": result[job.key].average_accuracy,
            "em_iterations": _total_em_iterations(result),
            "rates": _warm_rates(result),
            "seconds": timings[variant],
        }

    print(
        f"\n\nPaper-scale protocol on {smallest_bench_dataset!r} "
        f"({paper_protocol.n_iterations} iterations x {paper_protocol.n_seeds} seed(s)):"
    )
    for variant, row in summary.items():
        rates = row["rates"]
        print(
            f"  {variant:14s} avg_acc={row['accuracy']:.4f} "
            f"em_iterations={row['em_iterations']:6d} "
            f"warm_rate(lm/glasso/al)={rates['lm'][0]:.2f}/"
            f"{rates['glasso'][0]:.2f}/{rates['al'][0]:.2f} "
            f"wall={row['seconds']:.2f}s"
        )

    bench_record(
        "paper_scale_warm_vs_cold",
        {
            "dataset": smallest_bench_dataset,
            "n_iterations": paper_protocol.n_iterations,
            "n_seeds": paper_protocol.n_seeds,
            "variants": {
                variant: {
                    "accuracy": row["accuracy"],
                    "em_iterations": row["em_iterations"],
                    "wall_seconds": row["seconds"],
                    "lm_warm_rate": row["rates"]["lm"][0],
                    "glasso_warm_rate": row["rates"]["glasso"][0],
                    "al_warm_rate": row["rates"]["al"][0],
                }
                for variant, row in summary.items()
            },
        },
    )

    shipped, reference = summary["shipped"], summary["reference_cold"]
    assert abs(shipped["accuracy"] - reference["accuracy"]) <= ACCURACY_TOLERANCE
    if shipped["em_iterations"] > reference["em_iterations"]:
        _print_em_iterations_per_fit(results)
        _print_warm_against_cold(job, paper_protocol)
    assert shipped["em_iterations"] <= reference["em_iterations"]

    # The reference never warm-starts; the shipped warm refits must actually
    # engage (> 0 guards CI against silent cold-start regressions; the env
    # floor pins the measured rate).  Families that never refit on very
    # short protocols (post-first fits = 0) are skipped.
    assert all(rate == 0.0 for rate, _ in reference["rates"].values())
    for family in ("lm", "glasso", "al"):
        rate, post_first = shipped["rates"][family]
        if post_first:
            assert rate > 0.0
    min_warm_rate = float(os.environ.get("REPRO_PAPER_BENCH_MIN_WARM_RATE", 0.5))
    lm_rate, lm_post_first = shipped["rates"]["lm"]
    if lm_post_first:
        assert lm_rate >= min_warm_rate
