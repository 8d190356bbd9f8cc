"""Compare ActiveDP against the paper's baselines on one dataset.

Reproduces a single panel of Figure 3: runs ActiveDP, Nemo, IWS, Revising LF
and uncertainty sampling on the chosen dataset under the same labelling
budget and prints the downstream model's performance curve for each.

All frameworks are scheduled through the experiment engine, so the whole
comparison can run in parallel and reruns are served from the trial cache.

Usage::

    python examples/compare_frameworks.py [--dataset youtube] [--iterations 40] \
        [--workers 4] [--cache-dir .repro-cache] [--no-cache]
"""

from __future__ import annotations

import argparse

from repro.datasets import DATASET_PROFILES
from repro.experiments import EvaluationProtocol
from repro.experiments.figure3 import FIGURE3_FRAMEWORKS
from repro.experiments.reporting import format_curve_series
from repro.runner import ExecutionConfig, GridJob, last_report, run_experiment_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="youtube", choices=sorted(DATASET_PROFILES))
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--eval-every", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for the grid (0 = all cores)")
    parser.add_argument("--cache-dir", default=None,
                        help="trial-result cache directory (reruns become near-instant)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the trial-result cache")
    args = parser.parse_args()

    protocol = EvaluationProtocol(
        n_iterations=args.iterations,
        eval_every=args.eval_every,
        n_seeds=args.seeds,
        dataset_scale=args.scale,
    )
    execution = ExecutionConfig(
        workers=args.workers, cache_dir=None if args.no_cache else args.cache_dir
    )
    kind = DATASET_PROFILES[args.dataset].kind

    print(f"Comparing frameworks on {args.dataset!r} "
          f"({args.iterations} iterations, {args.seeds} seed(s), "
          f"{args.workers} worker(s))\n")
    jobs = []
    for framework in FIGURE3_FRAMEWORKS:
        if framework == "nemo" and kind == "tabular":
            print(f"  {framework:12s}  skipped (text-only baseline)")
            continue
        jobs.append(GridJob(key=framework, framework=framework, dataset=args.dataset))
    results = run_experiment_grid(jobs, protocol, execution)

    scores = {}
    for framework, result in results.items():
        scores[framework] = result.average_accuracy
        print(f"  {format_curve_series(result)}")
    print(f"\nEngine: {last_report()}")

    print("\nAverage test accuracy during the run (the paper's headline metric):")
    for framework, score in sorted(scores.items(), key=lambda item: -item[1]):
        print(f"  {framework:12s} {score:.4f}")


if __name__ == "__main__":
    main()
