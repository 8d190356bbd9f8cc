"""Trial execution: the per-trial loop and the parallel scheduler.

:func:`run_trial_on_split` is the canonical evaluation loop for one trial —
``n_iterations`` pipeline steps, one ``pipeline.evaluate`` at each of the
protocol's checkpoints, and the pipeline's own per-iteration records
propagated into the :class:`~repro.core.results.RunHistory` (the protocol
layer delegates here, so serial and parallel paths share one loop).

:func:`execute_trials` schedules a batch of :class:`TrialSpec`s across a
process pool.  Trials are fully self-contained — the dataset is regenerated
inside the worker from the spec's seed, and every stochastic component is
seeded from the spec — so parallel execution is bit-identical to serial
execution in any order.  Pool-level failures (sandboxes without process
support, unpicklable kwargs) degrade to an in-process serial loop.

The same self-containment is what lets :func:`run_trial` serve as the
execution kernel everywhere trials run: the serial path, the pool workers
here, and the cross-machine :mod:`repro.runner.worker` daemons all call it
with nothing but a spec.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.baselines import get_pipeline
from repro.core.results import IterationRecord, RunHistory
from repro.datasets import load_dataset
from repro.runner.spec import TrialSpec


def run_trial_on_split(
    framework: str,
    data_split,
    protocol,
    seed: int,
    pipeline_kwargs: dict | None = None,
) -> RunHistory:
    """Run one framework on one already-generated dataset split with one seed."""
    pipeline = get_pipeline(framework, data_split, random_state=seed, **(pipeline_kwargs or {}))
    history = RunHistory(framework=framework, dataset=data_split.name, seed=seed)
    eval_points = set(protocol.evaluation_iterations())
    for iteration in range(1, protocol.n_iterations + 1):
        record = pipeline.step()
        if record is None:
            # Pipelines without per-iteration introspection still get a row.
            record = IterationRecord(iteration=iteration, query_index=-1)
        else:
            # Align the pipeline's internal counter with the protocol's
            # 1-based labelling-budget count.
            record.iteration = iteration
        if iteration in eval_points:
            evaluation = pipeline.evaluate(C=protocol.end_model_C)
            record.test_accuracy, record.label_coverage, record.label_accuracy = evaluation
        history.add(record)
    exporter = getattr(pipeline, "export_artifacts", None)
    if exporter is not None:
        # Pipelines may export final outputs (aggregated labels, per-LF
        # diagnostics, end-model predictions) beyond the metric records; the
        # serving layer returns these to label-request clients.  The payload
        # must be plain JSON-able Python — it travels inside the cached blob.
        history.artifacts = exporter()
    return history


def run_trial(spec: TrialSpec) -> RunHistory:
    """Execute one trial from scratch (dataset generation included)."""
    data_split = load_dataset(
        spec.dataset, scale=spec.protocol.dataset_scale, random_state=spec.seed
    )
    return run_trial_on_split(
        spec.framework, data_split, spec.protocol, spec.seed, spec.pipeline_kwargs
    )


def default_workers() -> int:
    """Default worker count for ``workers=0`` (all cores, capped at 8)."""
    return min(os.cpu_count() or 1, 8)


def execute_trials(
    specs: Sequence[TrialSpec],
    workers: int = 1,
    on_result: Callable[[TrialSpec, RunHistory], None] | None = None,
) -> list[RunHistory]:
    """Execute *specs* and return their histories in the same order.

    ``workers > 1`` fans the trials out over a process pool (``workers=0``
    means :func:`default_workers`); ``workers=1`` runs in-process.  If the
    pool cannot be created or fed, execution falls back to the serial path
    with a warning — results are identical either way.

    *on_result* is invoked once per trial as soon as its history is
    available (completion order under a pool) — the engine uses it to
    persist results incrementally, so an interrupted grid run keeps every
    trial finished so far.
    """
    if workers == 0:
        workers = default_workers()
    if workers < 0:
        raise ValueError("workers must be >= 0")
    specs = list(specs)
    histories: list[RunHistory | None] = [None] * len(specs)
    remaining = set(range(len(specs)))
    attempted: set[int] = set()

    def _record(position: int, history: RunHistory) -> None:
        # The one place a finished trial is accounted for, on every path
        # (serial, pool, fallback, salvage).  ``attempted`` is marked before
        # on_result so a hook that raises mid-call (e.g. cache disk full) is
        # never re-invoked for the same trial by the salvage pass.
        attempted.add(position)
        if on_result is not None:
            on_result(specs[position], history)
        histories[position] = history
        remaining.discard(position)

    def _serial() -> list[RunHistory]:
        for position in sorted(remaining):
            _record(position, run_trial(specs[position]))
        return histories

    if workers <= 1 or len(specs) <= 1:
        return _serial()

    def _serial_remaining(exc: BaseException) -> list[RunHistory]:
        warnings.warn(
            f"parallel trial execution unavailable ({exc!r}); "
            f"running {len(remaining)} remaining trial(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return _serial()

    # submit() returns before the spec is pickled (serialisation happens in
    # the executor's feeder thread), so an unpicklable spec cannot be caught
    # around submit — it would surface later from future.result() and fail
    # the whole batch.  Pre-validate the worker payload instead so it
    # degrades to the serial path before any worker starts.  Any pickling
    # failure means the pool is unusable for this batch, hence the broad
    # except.
    try:
        pickle.dumps((run_trial, specs))
    except Exception as exc:
        return _serial_remaining(exc)

    # Only pool-infrastructure failures fall back to the serial path;
    # exceptions raised by trial code (or by on_result) propagate unmasked —
    # catching them here would misreport a genuine failure as "parallelism
    # unavailable" and silently re-execute the whole batch.
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(specs)))
    except (ImportError, OSError, RuntimeError) as exc:
        # Sandboxed environments without process/semaphore support (missing
        # sem_open raises ImportError): nothing ran in a worker yet.
        return _serial_remaining(exc)
    with pool:
        try:
            futures = {pool.submit(run_trial, spec): position for position, spec in enumerate(specs)}
        except (OSError, RuntimeError) as exc:
            # Worker spawn failure: nothing ran in a worker yet.
            pool.shutdown(cancel_futures=True)
            return _serial_remaining(exc)
        try:
            for future in as_completed(futures):
                position = futures[future]
                try:
                    history = future.result()
                except BrokenProcessPool as exc:
                    # Workers died underneath us (OOM, killed):
                    # infrastructure, not the trial; finish the incomplete
                    # positions in-process.
                    return _serial_remaining(exc)
                _record(position, history)
        except (KeyboardInterrupt, SystemExit):
            # Interrupts must exit promptly — don't wait out in-flight
            # trials (potentially a full trial duration) or run the salvage
            # pass, which a second Ctrl-C would land in.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        except BaseException:
            # A trial (or on_result) failed.  Without this, the `with pool`
            # exit would silently run every still-queued trial to completion
            # before the exception reached the caller — and drop those
            # results on the floor.  Cancel the queue, wait only for the
            # in-flight trials, and persist whatever did finish so the
            # "interrupted runs keep completed trials" promise holds.
            pool.shutdown(wait=True, cancel_futures=True)
            for future, position in futures.items():
                # attempted covers every recorded position (it is marked
                # before remaining is discarded), including hook-raised ones.
                if position in attempted or not future.done() or future.cancelled():
                    continue
                try:
                    _record(position, future.result())
                except Exception:
                    # Another failed trial, or a failing on_result: the
                    # original exception is the one to report.
                    continue
            raise
    return histories
