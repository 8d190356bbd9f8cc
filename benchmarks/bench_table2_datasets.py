"""Benchmark EXP-T2: regenerate Table 2 (datasets used in the evaluation).

Prints, for every benchmark dataset, the task, the paper's split sizes and
the sizes of the synthetic stand-in generated at the benchmark scale, and
smoke-tests the experiment engine on the cheapest configured dataset: the
parallel (``--workers N``) run must produce the exact ``average_accuracy``
of the serial code path, and a warm-cache rerun must execute zero trials.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import table2_dataset_statistics
from repro.experiments.protocol import run_framework_on_dataset
from repro.runner import last_report


def test_table2_dataset_statistics(benchmark, bench_protocol, bench_datasets):
    """Generate all benchmark datasets and print the Table 2 statistics."""

    def run():
        return table2_dataset_statistics(
            scale=bench_protocol.dataset_scale, random_state=0, names=bench_datasets
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    header = (f"{'Name':10s} {'Task':26s} {'#Train':>7s} {'#Valid':>7s} {'#Test':>7s}"
              f" {'paper #Train':>13s} {'paper #Valid':>13s} {'paper #Test':>12s}")
    print("\n\nTable 2: Datasets used in Evaluation (synthetic stand-ins)")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:10s} {row['task']:26s} {row['n_train']:7d} "
              f"{row['n_valid']:7d} {row['n_test']:7d} {row['paper_train']:13d} "
              f"{row['paper_valid']:13d} {row['paper_test']:12d}")

    assert len(rows) == len(bench_datasets)
    for row in rows:
        assert row["n_train"] > 0 and row["n_valid"] > 0 and row["n_test"] > 0
        # 80/10/10 split shape.
        total = row["n_train"] + row["n_valid"] + row["n_test"]
        assert row["n_train"] / total > 0.7


def test_engine_parallel_matches_serial_with_warm_cache(
    benchmark, bench_protocol, bench_execution, smallest_bench_dataset, tmp_path_factory
):
    """Parallel + cached grid execution is bit-equal to the serial code path."""
    framework = "activedp"
    cache_dir = bench_execution.cache_dir or tmp_path_factory.mktemp("trial-cache")
    # Keep the workers=0 "all cores" sentinel intact; only promote an
    # explicit serial setting to an actually-parallel pool.
    workers = bench_execution.workers
    if workers == 1:
        workers = 2
    parallel = replace(bench_execution, workers=workers, cache_dir=cache_dir)

    def run():
        return run_framework_on_dataset(
            framework, smallest_bench_dataset, bench_protocol, execution=parallel
        )

    cold = benchmark.pedantic(run, rounds=1, iterations=1)
    cold_report = last_report()
    serial = run_framework_on_dataset(framework, smallest_bench_dataset, bench_protocol)
    warm = run_framework_on_dataset(
        framework, smallest_bench_dataset, bench_protocol, execution=parallel
    )
    warm_report = last_report()

    print(f"\n\nEngine smoke on {smallest_bench_dataset!r} "
          f"({parallel.workers} workers, cache at {cache_dir}):")
    print(f"  cold run: {cold_report}; warm rerun: {warm_report}")
    print(f"  average_accuracy serial={serial.average_accuracy:.6f} "
          f"parallel={cold.average_accuracy:.6f} warm={warm.average_accuracy:.6f}")

    assert cold.average_accuracy == serial.average_accuracy
    assert warm.average_accuracy == serial.average_accuracy
    assert warm_report.n_executed == 0
    assert warm_report.n_cached == warm_report.n_trials
