"""Run one experiment grid across multiple independent worker processes.

Demonstrates the distributed execution backend end to end on a single
machine (the protocol is identical across machines — point the workers at a
shared spool/cache directory, e.g. an NFS mount):

1. spawn ``--num-workers`` completely independent
   ``python -m repro.runner.worker`` processes (they know nothing about the
   submitter — only the queue and cache locations), or, with
   ``--supervise``, one ``python -m repro.runner.supervisor`` that scales
   the worker fleet to the queue by itself;
2. submit a framework-comparison grid with
   ``ExecutionConfig(mode="distributed", ...)``: the engine enqueues the
   trials on the filesystem spool, the workers lease and execute them, and
   the engine assembles the ``GridReport`` by polling the shared cache;
3. re-run the same grid serially in-process (cache bypassed) and verify the
   per-trial histories are byte-identical — distribution changes where
   trials run, never what they compute.

Usage::

    python examples/distributed_grid.py [--dataset youtube] [--iterations 10] \
        [--num-workers 2] [--seeds 2] [--supervise] [--keep-dirs]

The workers also record every published result in the cache's
``results.sqlite3`` run-history index, and the example finishes by smoking
the ``python -m repro.runner.query`` CLI (``--reindex`` + a leaderboard)
against it.
"""

from __future__ import annotations

import argparse
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile

from repro.datasets import DATASET_PROFILES
from repro.experiments import EvaluationProtocol
from repro.runner import (
    ExecutionConfig,
    GridJob,
    last_report,
    run_experiment_grid,
)
from repro.runner.fleet import (
    fleet_paths,
    subprocess_env,
    supervisor_command,
    worker_command,
)


def spawn_worker(spool: str, cache_dir: str, index: int) -> subprocess.Popen:
    """Start one worker daemon as a fully independent subprocess."""
    return subprocess.Popen(
        worker_command(
            spool,
            cache_dir,
            idle_timeout=5,
            worker_id=f"example-{index}",
        ),
        env=subprocess_env(),
    )


def spawn_supervisor(spool: str, cache_dir: str, max_workers: int) -> subprocess.Popen:
    """Start the elastic fleet supervisor (it spawns the workers itself)."""
    return subprocess.Popen(
        supervisor_command(
            spool,
            cache_dir,
            max_workers=max_workers,
            tasks_per_worker=1,
            worker_idle_timeout=5,
            interval=0.3,
        ),
        env=subprocess_env(),
    )


def smoke_query_cli(cache_dir: str) -> None:
    """Exercise the run-history query CLI against the populated cache.

    Rebuilds the index from the blobs (``--reindex`` must converge to what
    the workers wrote incrementally) and runs a framework leaderboard — the
    two subcommands a fresh adopter of an existing cache would reach for.
    """
    for label, command in (
        ("reindex", ["--cache-dir", cache_dir, "--reindex", "--counts"]),
        ("leaderboard", ["--cache-dir", cache_dir, "--leaderboard",
                         "--metric", "average_accuracy"]),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "repro.runner.query", *command],
            env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (label, result.stderr)
        assert result.stdout.strip(), (label, "query printed nothing")
        print(f"  query CLI ({label}):")
        for line in result.stdout.strip().splitlines():
            print(f"    {line}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="youtube", choices=sorted(DATASET_PROFILES))
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--num-workers", type=int, default=2,
                        help="independent worker processes to spawn (with "
                             "--supervise: the supervisor's --max-workers)")
    parser.add_argument("--supervise", action="store_true",
                        help="replace the hand-spawned workers with one "
                             "elastic supervisor process")
    parser.add_argument("--work-dir", default=None,
                        help="spool/cache parent directory (default: a temp dir)")
    parser.add_argument("--keep-dirs", action="store_true",
                        help="leave the spool and cache directories behind")
    args = parser.parse_args()

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-distributed-")
    spool, cache_dir = fleet_paths(work_dir)

    protocol = EvaluationProtocol(
        n_iterations=args.iterations,
        eval_every=max(args.iterations // 2, 1),
        n_seeds=args.seeds,
        dataset_scale=args.scale,
    )
    jobs = [
        GridJob(key=framework, framework=framework, dataset=args.dataset)
        for framework in ("activedp", "uncertainty")
    ]

    supervisor = None
    workers: list[subprocess.Popen] = []
    if args.supervise:
        print(f"Spawning a supervisor (max {args.num_workers} workers) against "
              f"{spool} ...")
        supervisor = spawn_supervisor(spool, cache_dir, args.num_workers)
    else:
        print(f"Spawning {args.num_workers} worker daemon(s) against {spool} ...")
        workers = [spawn_worker(spool, cache_dir, i) for i in range(args.num_workers)]
    try:
        print(f"Submitting {len(jobs)} job(s) x {args.seeds} seed(s) distributed ...")
        distributed = run_experiment_grid(
            jobs,
            protocol,
            ExecutionConfig(
                mode="distributed",
                spool_dir=spool,
                cache_dir=cache_dir,
                wait_timeout=600,
            ),
        )
        print(f"  engine: {last_report()}")
    finally:
        for worker in workers:
            worker.wait(timeout=60)
        if supervisor is not None:
            # Service-mode supervisor: ask the fleet to stand down now that
            # the grid is done (exit 130 is its clean-interrupt code).
            supervisor.send_signal(signal.SIGINT)
            code = supervisor.wait(timeout=60)
            assert code == 130, f"supervisor exited {code}, expected 130 (SIGINT)"

    print("Re-running the same grid serially in-process (no cache) ...")
    serial = run_experiment_grid(
        jobs, protocol, ExecutionConfig(workers=1)
    )

    for key in serial:
        pairs = zip(serial[key].histories, distributed[key].histories)
        assert all(pickle.dumps(a) == pickle.dumps(b) for a, b in pairs), key
        print(f"  {key:12s} avg_acc={serial[key].average_accuracy:.4f}  "
              "(distributed == serial, byte-identical)")

    smoke_query_cli(cache_dir)

    if args.keep_dirs:
        print(f"Spool/cache kept under {work_dir}")
    elif args.work_dir is None:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
