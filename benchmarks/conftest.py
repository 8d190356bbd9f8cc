"""Shared configuration for the benchmark suite.

Every benchmark regenerates one artefact of the paper's evaluation section
(Table 2-5, Figure 3).  The defaults are scaled down so the whole suite runs
in minutes on one machine; three environment variables restore larger (up to
paper-scale) protocols:

* ``REPRO_BENCH_SCALE``       synthetic dataset scale factor (default 0.3)
* ``REPRO_BENCH_ITERATIONS``  labelling budget per run (default 20; paper 300)
* ``REPRO_BENCH_SEEDS``       repetitions per configuration (default 1; paper 5)
* ``REPRO_BENCH_DATASETS``    comma-separated dataset subset (default: all 8)

Execution is routed through the experiment engine; the ``--workers``,
``--cache-dir`` and ``--no-cache`` command-line options (registered in the
root ``conftest.py``, with ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_CACHE_DIR``
/ ``REPRO_BENCH_NO_CACHE`` fallbacks) control parallelism and trial-result
caching for every benchmark.  ``--distributed`` + ``--spool-dir``
(``REPRO_BENCH_DISTRIBUTED`` / ``REPRO_BENCH_SPOOL_DIR``) instead hand the
grid to externally started ``python -m repro.runner.worker`` daemons sharing
the spool and cache directories.

``bench_paper_scale.py`` additionally understands ``REPRO_PAPER_BENCH_FULL``
/ ``REPRO_PAPER_BENCH_ITERATIONS`` / ``REPRO_PAPER_BENCH_SEEDS`` /
``REPRO_PAPER_BENCH_SCALE`` to grow its scaled-down warm-vs-cold comparison
back to the verbatim ``EvaluationProtocol.paper()`` protocol.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import DATASET_PROFILES, dataset_names
from repro.experiments import EvaluationProtocol
from repro.runner import ExecutionConfig


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_protocol() -> EvaluationProtocol:
    """Evaluation protocol used by all benchmarks (scaled via env vars)."""
    iterations = _env_int("REPRO_BENCH_ITERATIONS", 20)
    return EvaluationProtocol(
        n_iterations=iterations,
        eval_every=max(iterations // 4, 1),
        n_seeds=_env_int("REPRO_BENCH_SEEDS", 1),
        dataset_scale=_env_float("REPRO_BENCH_SCALE", 0.3),
        base_seed=0,
    )


@pytest.fixture(scope="session")
def bench_datasets() -> list[str]:
    """Datasets covered by the benchmarks (all eight of Table 2 by default)."""
    override = os.environ.get("REPRO_BENCH_DATASETS")
    if override:
        return [name.strip() for name in override.split(",") if name.strip()]
    return dataset_names()


@pytest.fixture(scope="session")
def bench_execution(request) -> ExecutionConfig:
    """Engine execution configuration from CLI options / environment.

    With ``--distributed`` (or ``REPRO_BENCH_DISTRIBUTED=1``) the grid is
    spooled to externally started ``python -m repro.runner.worker`` daemons
    via ``--spool-dir`` / ``REPRO_BENCH_SPOOL_DIR``; otherwise trials run in
    a local process pool sized by ``--workers``.
    """
    workers = request.config.getoption("--workers")
    if workers is None:
        workers = _env_int("REPRO_BENCH_WORKERS", 1)
    cache_dir = request.config.getoption("--cache-dir") or os.environ.get(
        "REPRO_BENCH_CACHE_DIR"
    )
    no_cache = request.config.getoption("--no-cache") or bool(
        int(os.environ.get("REPRO_BENCH_NO_CACHE", "0"))
    )
    distributed = request.config.getoption("--distributed") or bool(
        int(os.environ.get("REPRO_BENCH_DISTRIBUTED", "0"))
    )
    if distributed:
        spool_dir = request.config.getoption("--spool-dir") or os.environ.get(
            "REPRO_BENCH_SPOOL_DIR"
        )
        if not spool_dir or not cache_dir or no_cache:
            raise pytest.UsageError(
                "--distributed needs --spool-dir and an enabled --cache-dir "
                "(the shared cache carries worker results back)"
            )
        return ExecutionConfig(
            mode="distributed", spool_dir=spool_dir, cache_dir=cache_dir
        )
    return ExecutionConfig(workers=workers, cache_dir=None if no_cache else cache_dir)


@pytest.fixture(scope="session")
def smallest_bench_dataset(bench_datasets) -> str:
    """The cheapest configured dataset (by synthetic corpus size)."""
    return min(bench_datasets, key=lambda name: DATASET_PROFILES[name].default_size)


@pytest.fixture(scope="session")
def bench_record():
    """Headline-number recorder writing the repo-root ``BENCH_core.json``.

    ``bench_record(name, values)`` merges *values* under the *name* key (see
    ``benchmarks/record.py``); ``REPRO_BENCH_RECORD_FILE`` redirects the
    output file.
    """
    import record

    return record.record
