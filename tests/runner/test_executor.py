"""Tests for the trial executor's degradation paths."""

import pytest

from repro.core.results import RunHistory
from repro.experiments import EvaluationProtocol
from repro.runner import TrialSpec, executor
from repro.runner.engine import GridJob, expand_jobs

FAST = EvaluationProtocol(n_iterations=3, eval_every=3, n_seeds=2, dataset_scale=0.15)


def _specs():
    jobs = [GridJob(key="uncertainty", framework="uncertainty", dataset="youtube")]
    return [spec for _, spec in expand_jobs(jobs, FAST)]


def test_unpicklable_payload_falls_back_to_serial(monkeypatch):
    """An unpicklable worker payload degrades to the serial path, not a crash.

    submit() returns before pickling happens (it runs in the pool's feeder
    thread), so the executor must pre-validate the payload; this locks in
    the module docstring's 'unpicklable kwargs degrade to an in-process
    serial loop' promise.
    """
    specs = _specs()
    calls = []

    # A function defined inside a test body cannot be pickled by reference,
    # which is exactly the failure mode of an unpicklable spec payload.
    def fake_run_trial(spec):
        calls.append(spec.key)
        return RunHistory(framework=spec.framework, dataset=spec.dataset, seed=spec.seed)

    monkeypatch.setattr(executor, "run_trial", fake_run_trial)
    with pytest.warns(RuntimeWarning, match="serially"):
        histories = executor.execute_trials(specs, workers=2)

    assert len(histories) == len(specs)
    assert calls == [spec.key for spec in specs]
    assert all(h is not None for h in histories)


def test_parallel_failure_persists_completed_trials():
    """A failing trial cancels the queue but keeps finished trials.

    The good trial is submitted first: the pool hands work items to its
    workers in submission order, so the good one is running (and can no
    longer be cancelled) no later than the bad one, which fails fast
    (unknown dataset) while the good one is in flight.  The executor must
    propagate the failure without either running queued trials to
    completion behind the caller's back or dropping the good trial's
    result from the on_result hook.
    """
    good = _specs()[0]
    bad = TrialSpec(
        framework="uncertainty", dataset="no-such-dataset", seed=good.seed, protocol=FAST
    )
    seen = []
    with pytest.raises(Exception, match="no-such-dataset"):
        executor.execute_trials(
            [good, bad], workers=2, on_result=lambda s, h: seen.append(s.key)
        )
    assert seen == [good.key]


def test_pool_creation_importerror_falls_back(monkeypatch):
    """Missing sem_open support (ImportError) degrades to the serial path."""

    class NoSemaphores:
        def __init__(self, *args, **kwargs):
            raise ImportError("This platform lacks a functioning sem_open implementation")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", NoSemaphores)
    with pytest.warns(RuntimeWarning, match="serially"):
        histories = executor.execute_trials(_specs(), workers=2)
    assert all(h is not None for h in histories)


def test_failing_on_result_is_not_reinvoked():
    """A raising on_result hook runs at most once per trial.

    The salvage pass must not retry a position whose hook already ran and
    raised — that would double-count executed trials in the engine's
    report and re-attempt a failing cache write.
    """
    calls = []

    def bad_on_result(spec, history):
        calls.append(spec.key)
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        executor.execute_trials(_specs(), workers=2, on_result=bad_on_result)
    assert len(calls) == len(set(calls))


def test_on_result_fires_during_fallback(monkeypatch):
    """The incremental-persistence hook still fires on the fallback path."""
    specs = _specs()

    def fake_run_trial(spec):
        return RunHistory(framework=spec.framework, dataset=spec.dataset, seed=spec.seed)

    monkeypatch.setattr(executor, "run_trial", fake_run_trial)
    seen = []
    with pytest.warns(RuntimeWarning):
        executor.execute_trials(specs, workers=2, on_result=lambda s, h: seen.append(s.key))
    assert seen == [spec.key for spec in specs]
