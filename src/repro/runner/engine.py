"""The experiment engine: grid expansion, scheduling, caching, aggregation.

Every experiment in :mod:`repro.experiments` is some grid of trials —
frameworks x datasets x seeds, ablation variants x datasets x seeds, and so
on.  The engine gives them one orchestration path:

1. express the grid as :class:`GridJob`s (one job = one aggregated result
   cell, e.g. "ActiveDP on youtube");
2. :func:`expand_jobs` derives the per-seed :class:`TrialSpec` list with
   deterministic :func:`~repro.utils.rng.spawn_seeds` seeding;
3. :func:`run_specs` serves cached trials from the
   :class:`~repro.runner.results.IndexedResultStore` over ``cache_dir``
   (the content-addressed pickle-shard blobs plus the ``results.sqlite3``
   run-history index) and schedules the rest through
   :func:`~repro.runner.executor.execute_trials` (process-pool parallel
   across the *whole* grid, not per cell) — or, with
   ``ExecutionConfig(mode="distributed", ...)``, enqueues them on the
   filesystem :class:`~repro.runner.brokers.SpoolBroker` for independently
   started worker daemons and polls the shared cache for completion;
4. :func:`run_experiment_grid` folds the histories back into
   :class:`~repro.experiments.protocol.FrameworkResult`s per job.

Because trials are self-contained and deterministically seeded, results are
identical for any worker count, any cache temperature, and any placement of
the workers (local pool or remote machines).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.results import RunHistory
from repro.runner.brokers import DEFAULT_LEASE_TTL, SpoolBroker
from repro.runner.executor import execute_trials
from repro.runner.results import IndexedResultStore
from repro.runner.spec import TrialSpec
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # Annotation-only: a runtime import would make `import repro.runner`
    # circular through repro/experiments/__init__.py (see test_imports.py).
    from repro.experiments.protocol import EvaluationProtocol, FrameworkResult


@dataclass(frozen=True)
class ExecutionConfig:
    """How a grid is executed: parallelism, result caching, distribution.

    Attributes
    ----------
    workers:
        Process-pool size for local execution; ``1`` (default) runs
        serially, ``0`` uses all cores (capped).  Ignored when
        ``mode="distributed"`` — remote worker processes decide their own
        parallelism.
    cache_dir:
        Root of the content-addressed result cache, which also holds the
        ``results.sqlite3`` run-history index; ``None`` disables caching
        entirely.  Distributed execution *requires* a cache: it is the
        channel results travel back through.
    mode:
        ``"local"`` (default) executes trials in this process or its
        process pool; ``"distributed"`` enqueues them on the filesystem
        spool for independently started ``python -m repro.runner.worker``
        daemons and polls the cache for completion.
    spool_dir:
        Shared spool directory for ``mode="distributed"`` (the workers'
        ``--spool``).
    lease_ttl:
        Seconds without a worker heartbeat before the submitter re-offers
        a claimed trial (crash recovery).  Match the workers'
        ``--lease-ttl``.
    wait_timeout:
        Give up (``SpoolTimeout``) after this many seconds with trials
        still outstanding; ``None`` waits forever.
    """

    workers: int = 1
    cache_dir: str | Path | None = None
    mode: str = "local"
    spool_dir: str | Path | None = None
    lease_ttl: float = DEFAULT_LEASE_TTL
    wait_timeout: float | None = None

    def __post_init__(self):
        if self.mode not in ("local", "distributed"):
            raise ValueError(
                f"mode must be 'local' or 'distributed', got {self.mode!r}"
            )
        if self.mode == "distributed":
            if self.spool_dir is None:
                raise ValueError(
                    "distributed execution needs a spool_dir (the shared "
                    "directory workers poll; set REPRO_SPOOL_DIR when using "
                    'the execution="distributed" shorthand)'
                )
            if self.cache() is None:
                raise ValueError(
                    "distributed execution needs an enabled cache_dir — the "
                    "shared cache is how worker results reach the submitter "
                    '(set REPRO_CACHE_DIR when using the execution='
                    '"distributed" shorthand)'
                )

    @classmethod
    def coerce(cls, value: ExecutionConfig | str | None) -> ExecutionConfig:
        """Normalise the ``execution`` argument every engine entry point takes.

        ``None`` means the serial default; an :class:`ExecutionConfig`
        passes through; a string names a preset — ``"serial"``,
        ``"parallel"`` (all cores) or ``"distributed"`` (spool/cache
        directories from the ``REPRO_SPOOL_DIR`` / ``REPRO_CACHE_DIR``
        environment variables).
        """
        if value is None:
            return cls()
        if isinstance(value, ExecutionConfig):
            return value
        if isinstance(value, str):
            if value == "serial":
                return cls(workers=1)
            if value == "parallel":
                return cls(workers=0)
            if value == "distributed":
                return cls(
                    mode="distributed",
                    spool_dir=os.environ.get("REPRO_SPOOL_DIR"),
                    cache_dir=os.environ.get("REPRO_CACHE_DIR"),
                )
            raise ValueError(
                f"unknown execution preset {value!r} "
                "(expected 'serial', 'parallel' or 'distributed')"
            )
        raise TypeError(
            f"execution must be an ExecutionConfig, a preset name or None, "
            f"got {type(value).__name__}"
        )

    def cache(self) -> IndexedResultStore | None:
        """The result store over :attr:`cache_dir`, or ``None`` when caching is off.

        The pickle-shard blobs plus the ``results.sqlite3`` run-history
        index: every ``put`` writes the blob, then its index row.
        """
        if self.cache_dir is None:
            return None
        return IndexedResultStore(self.cache_dir)


@dataclass
class TrialOutcome:
    """One executed, cache-served or deduplication-served trial.

    ``deduplicated`` marks positions that shared another pending position's
    content key and received a copy of its single execution's history —
    neither executed themselves nor cache hits (so per-outcome counts line
    up with :class:`GridReport`).
    """

    spec: TrialSpec
    history: RunHistory
    from_cache: bool = False
    deduplicated: bool = False


@dataclass
class GridReport:
    """Execution statistics of the most recent grid run.

    ``n_deduplicated`` counts trial positions that shared another pending
    position's content key and were served from its single execution
    (``n_executed`` counts actual local executions, ``n_remote`` counts
    trials completed by distributed workers, so ``n_executed + n_remote +
    n_cached + n_deduplicated == n_trials`` for a completed run).
    ``n_released`` counts expired leases the submitter re-offered while
    waiting — i.e. how many times crash recovery kicked in (not a trial
    count; one trial can be released more than once).
    """

    n_trials: int = 0
    n_executed: int = 0
    n_cached: int = 0
    n_deduplicated: int = 0
    n_remote: int = 0
    n_released: int = 0

    def __str__(self) -> str:  # pragma: no cover - display helper
        text = (
            f"{self.n_trials} trial(s): {self.n_executed} executed, "
            f"{self.n_cached} from cache"
        )
        if self.n_remote:
            text += f", {self.n_remote} on remote workers"
        if self.n_deduplicated:
            text += f", {self.n_deduplicated} deduplicated"
        if self.n_released:
            text += f" ({self.n_released} expired lease(s) re-offered)"
        return text


_last_report: GridReport | None = None


def last_report() -> GridReport | None:
    """Execution statistics of the most recent :func:`run_specs` call."""
    return _last_report


def run_specs(
    specs: Sequence[TrialSpec], execution: ExecutionConfig | str | None = None
) -> list[TrialOutcome]:
    """Run *specs* (cache-first, then parallel or distributed), in input order.

    *execution* accepts an :class:`ExecutionConfig` or one of the preset
    names understood by :meth:`ExecutionConfig.coerce` (``"serial"``,
    ``"parallel"``, ``"distributed"``).
    """
    global _last_report
    execution = ExecutionConfig.coerce(execution)
    cache = execution.cache()
    specs = list(specs)

    histories: dict[int, RunHistory] = {}
    cached_positions: set[int] = set()
    # Two grid jobs can expand to the same trial (same content key,
    # different presentation group); execute it once and fan the history
    # back out to every position — running it twice would waste the work
    # and race two cache writes on one entry.
    pending_specs: list[TrialSpec] = []
    pending_positions: dict[str, list[int]] = {}
    for position, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            histories[position] = hit
            cached_positions.add(position)
        else:
            positions = pending_positions.setdefault(spec.key, [])
            if not positions:
                pending_specs.append(spec)
            positions.append(position)
    # Persist each trial the moment it finishes: an interrupted grid run
    # keeps everything completed so far.  The report is written in a
    # ``finally`` with the *actual* completion counts, so after a failed grid
    # last_report() describes the interrupted run, not the previous one —
    # twin positions are only served after the whole batch returns, so an
    # interrupted run reports zero deduplicated trials.
    n_executed = 0
    n_deduplicated = 0
    n_remote = 0
    n_released = 0

    def _on_executed(spec: TrialSpec, history: RunHistory) -> None:
        nonlocal n_executed
        n_executed += 1
        if cache is not None:
            cache.put(spec, history)

    def _on_remote(spec: TrialSpec, history: RunHistory) -> None:
        # The worker already wrote the history through the shared cache —
        # completion *is* the cache write — so only the count is local work.
        nonlocal n_remote
        n_remote += 1

    def _on_released(count: int) -> None:
        nonlocal n_released
        n_released += count

    try:
        if execution.mode == "distributed":
            broker = SpoolBroker(execution.spool_dir, lease_ttl=execution.lease_ttl)
            # One batched submission: the spool snapshots its pending and
            # leased sets once for the whole grid instead of paying
            # per-task round trips.
            broker.enqueue_batch(pending_specs)
            by_key = broker.wait(
                pending_specs,
                cache,
                timeout=execution.wait_timeout,
                on_result=_on_remote,
                on_released=_on_released,
            )
            executed = [by_key[spec.key] for spec in pending_specs]
        else:
            executed = execute_trials(
                pending_specs, workers=execution.workers, on_result=_on_executed
            )
        n_deduplicated = sum(len(p) - 1 for p in pending_positions.values())
    finally:
        _last_report = GridReport(
            n_trials=len(specs),
            n_executed=n_executed,
            n_cached=len(cached_positions),
            n_deduplicated=n_deduplicated,
            n_remote=n_remote,
            n_released=n_released,
        )
    deduplicated_positions: set[int] = set()
    for spec, history in zip(pending_specs, executed):
        positions = pending_positions[spec.key]
        histories[positions[0]] = history
        for position in positions[1:]:
            # Deep-copied so callers mutating one outcome's history (or
            # pickling it) never observe sharing with its twin.
            histories[position] = copy.deepcopy(history)
            deduplicated_positions.add(position)
    return [
        TrialOutcome(
            spec=spec,
            history=histories[position],
            from_cache=position in cached_positions,
            deduplicated=position in deduplicated_positions,
        )
        for position, spec in enumerate(specs)
    ]


@dataclass(frozen=True, eq=False)
class GridJob:
    """One aggregated cell of an experiment grid.

    Attributes
    ----------
    key:
        Hashable label the caller uses to find the cell's
        :class:`FrameworkResult` in the engine's output (e.g.
        ``(variant, dataset)``).
    framework:
        Pipeline registry name executed for this cell.
    dataset:
        Dataset registry name.
    pipeline_kwargs:
        Extra pipeline constructor arguments for this cell.
    """

    key: Hashable
    framework: str
    dataset: str
    pipeline_kwargs: dict | None = None


def expand_jobs(
    jobs: Sequence[GridJob], protocol: EvaluationProtocol
) -> list[tuple[GridJob, TrialSpec]]:
    """Expand jobs into per-seed trial specs with deterministic seeding."""
    seeds = spawn_seeds(protocol.base_seed, protocol.n_seeds)
    expanded: list[tuple[GridJob, TrialSpec]] = []
    for job in jobs:
        for seed in seeds:
            expanded.append(
                (
                    job,
                    TrialSpec(
                        framework=job.framework,
                        dataset=job.dataset,
                        seed=seed,
                        protocol=protocol,
                        pipeline_kwargs=job.pipeline_kwargs,
                        group=str(job.key),
                    ),
                )
            )
    return expanded


def run_experiment_grid(
    jobs: Sequence[GridJob],
    protocol: EvaluationProtocol | None = None,
    execution: ExecutionConfig | str | None = None,
) -> dict[Hashable, FrameworkResult]:
    """Run a whole experiment grid and aggregate per-job results.

    The flat trial list of *all* jobs is scheduled at once, so the process
    pool (or the worker fleet, with ``execution="distributed"`` /
    ``ExecutionConfig(mode="distributed", ...)``) stays busy across cells
    instead of draining per cell.
    """
    # Imported lazily: this module must stay importable without triggering
    # repro/experiments/__init__.py (which imports the engine back).
    from repro.experiments.protocol import EvaluationProtocol, summarize_histories

    protocol = protocol or EvaluationProtocol()
    keys = [job.key for job in jobs]
    if len(keys) != len(set(keys)):
        raise ValueError("grid jobs must have unique keys")
    expanded = expand_jobs(jobs, protocol)
    outcomes = run_specs([spec for _, spec in expanded], execution)

    histories: dict[GridJob, list[RunHistory]] = {}
    for (job, _), outcome in zip(expanded, outcomes):
        histories.setdefault(job, []).append(outcome.history)

    results: dict[Hashable, FrameworkResult] = {}
    for job in jobs:
        results[job.key] = summarize_histories(
            job.framework, job.dataset, histories.get(job, [])
        )
    return results


def nest_results(
    per_key: dict[Hashable, FrameworkResult]
) -> dict[Hashable, dict[Hashable, FrameworkResult]]:
    """Regroup ``{(outer, inner): result}`` into ``{outer: {inner: result}}``.

    The experiment drivers key their grid jobs by ``(variant, dataset)``-style
    pairs; this folds the engine's flat result dict into their nested return
    shape, preserving insertion order on both levels.
    """
    nested: dict[Hashable, dict[Hashable, FrameworkResult]] = {}
    for (outer, inner), result in per_key.items():
        nested.setdefault(outer, {})[inner] = result
    return nested
