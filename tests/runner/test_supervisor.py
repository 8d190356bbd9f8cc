"""Worker-fleet lifecycle tests for ``repro.runner.supervisor``.

Scaling policy is tested with injected fake spawners (no processes at
all); drain-then-exit runs real :func:`repro.runner.worker.run_worker`
loops on threads through the same injection seam, so the whole lifecycle —
scale-up on backlog, voluntary scale-down on idle, crashed-worker lease
recovery, drain — is covered without paying subprocess startup per test.
"""

from __future__ import annotations

import os
import subprocess
import threading

import pytest

from repro.runner import ResultCache, SpoolBroker, TrialSpec
from repro.experiments import EvaluationProtocol
from repro.runner.supervisor import Supervisor
from repro.runner.worker import run_worker

FAST = EvaluationProtocol(n_iterations=2, eval_every=2, n_seeds=2, dataset_scale=0.15)


def _spec(seed=0, framework="uncertainty", dataset="youtube"):
    return TrialSpec(framework=framework, dataset=dataset, seed=seed, protocol=FAST)


def _backdate_lease(lease, seconds=3600.0):
    stamp = lease.lease_path.stat().st_mtime - seconds
    os.utime(lease.lease_path, (stamp, stamp))


class _FakeHandle:
    """A 'worker' the tests park in any state they need."""

    def __init__(self):
        self.exit_code = None
        self.signals = []

    def poll(self):
        return self.exit_code

    def wait(self, timeout=None):
        if self.exit_code is None:
            raise subprocess.TimeoutExpired("fake-worker", timeout)
        return self.exit_code

    def send_signal(self, sig):
        self.signals.append(sig)

    def terminate(self):
        self.exit_code = -15


class _ThreadHandle:
    """A real worker loop on a thread, behind the WorkerHandle interface."""

    def __init__(self, worker_id, spool, cache_dir):
        self._code = None

        def target():
            try:
                run_worker(
                    str(spool),
                    str(cache_dir),
                    idle_timeout=0.5,
                    poll_interval=0.05,
                    worker_id=worker_id,
                    quiet=True,
                )
            except BaseException:
                self._code = 1
            else:
                self._code = 0

        self._thread = threading.Thread(target=target, daemon=True)
        self._thread.start()

    def poll(self):
        return None if self._thread.is_alive() else self._code

    def wait(self, timeout=None):
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise subprocess.TimeoutExpired("thread-worker", timeout)
        return self._code

    def send_signal(self, sig):
        pass  # threads retire via idle_timeout

    def terminate(self):
        pass


@pytest.fixture()
def queue(tmp_path):
    """(location, broker) for one shared spool."""
    location = tmp_path / "queue"
    return location, SpoolBroker(location)


class TestScalingPolicy:
    def test_scale_up_on_backlog(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch(
            [_spec(seed=seed, dataset=ds) for seed in range(10)
             for ds in ("youtube", "imdb")]
        )
        spawned = []

        def spawn(worker_id):
            spawned.append(worker_id)
            return _FakeHandle()

        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=8, tasks_per_worker=5, spawn=spawn, quiet=True,
        )
        summary = supervisor.step()
        # 20 pending / 5 per worker = 4 workers.
        assert summary["target"] == 4
        assert summary["spawned"] == 4
        assert len(spawned) == 4
        # A second tick with unchanged backlog spawns nothing new.
        assert supervisor.step()["spawned"] == 0
        assert supervisor.spawned_total == 4

    def test_wake_pipe_is_not_backlog(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue(_spec())
        broker.wait_for_work(0.0)  # an idle worker's wake pipe, held open
        spawned = []

        def spawn(worker_id):
            spawned.append(worker_id)
            return _FakeHandle()

        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=8, tasks_per_worker=1, spawn=spawn, quiet=True,
        )
        summary = supervisor.step()
        broker.close()
        assert (location / "wake").exists()
        assert (summary["target"], summary["spawned"]) == (1, 1)
        assert len(spawned) == 1

    def test_wide_shallow_queue_gets_a_worker_per_shard(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch(
            [_spec(dataset=ds) for ds in ("youtube", "imdb", "sms")]
        )
        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=8, tasks_per_worker=10,
            spawn=lambda worker_id: _FakeHandle(), quiet=True,
        )
        # Only 3 tasks (one per shard): depth alone says 1 worker, but each
        # backlogged shard can feed a claimant of its own.
        assert supervisor.step()["target"] == 3

    def test_max_workers_caps_the_fleet(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch([_spec(seed=seed) for seed in range(50)])
        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=3, tasks_per_worker=1,
            spawn=lambda worker_id: _FakeHandle(), quiet=True,
        )
        summary = supervisor.step()
        assert summary["target"] == 3 and summary["live"] == 3

    def test_scale_down_on_idle_reaps_and_spawns_nothing(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch([_spec(seed=seed) for seed in range(4)])
        handles = []

        def spawn(worker_id):
            handle = _FakeHandle()
            handles.append(handle)
            return handle

        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=4, tasks_per_worker=1, spawn=spawn, quiet=True,
        )
        supervisor.step()
        assert len(supervisor.workers) == 4
        # The queue drains and the workers retire themselves (idle timeout).
        for lease in broker.lease_batch("w", limit=4):
            broker.complete(lease)
        for handle in handles:
            handle.exit_code = 0
        summary = supervisor.step()
        assert summary["reaped"] == 4
        assert summary["spawned"] == 0
        assert summary["live"] == 0
        assert supervisor.drained()
        assert set(supervisor.reaped.values()) == {0}

    def test_min_workers_floor_holds_with_empty_queue(self, queue, tmp_path):
        location, broker = queue
        supervisor = Supervisor(
            location, tmp_path / "cache",
            min_workers=2, max_workers=4,
            spawn=lambda worker_id: _FakeHandle(), quiet=True,
        )
        assert supervisor.step()["live"] == 2


class TestCrashRecovery:
    def test_crashed_worker_leases_are_re_offered(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch([_spec(seed=seed) for seed in range(3)])
        # A worker claims everything and dies without releasing.
        crashed = SpoolBroker(location)
        leases = crashed.lease_batch("crashed", limit=3)
        assert len(leases) == 3
        for lease in leases:
            _backdate_lease(lease)
        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=2, spawn=lambda worker_id: _FakeHandle(), quiet=True,
        )
        summary = supervisor.step()
        assert summary["released"] == 3
        counts = broker.counts()
        assert counts["tasks"] == 3 and counts["leases"] == 0
        # The re-offered backlog immediately resizes the fleet.
        assert summary["spawned"] >= 1


class TestDrain:
    def test_drain_executes_everything_then_exits(self, queue, tmp_path):
        location, broker = queue
        cache_dir = tmp_path / "cache"
        specs = [_spec(seed=seed) for seed in range(2)]
        broker.enqueue_batch(specs)
        supervisor = Supervisor(
            location, cache_dir,
            max_workers=2, tasks_per_worker=1, poll_interval=0.2,
            spawn=lambda worker_id: _ThreadHandle(worker_id, location, cache_dir),
            quiet=True,
        )
        supervisor.run(drain=True)
        assert supervisor.drained()
        assert supervisor.spawned_total == 2
        assert set(supervisor.reaped.values()) == {0}
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}
        cache = ResultCache(cache_dir)
        assert {spec.key for spec in specs} <= cache.keys_present(specs)

    def test_shutdown_signals_then_clears_the_fleet(self, queue, tmp_path):
        location, broker = queue
        broker.enqueue_batch([_spec(seed=seed) for seed in range(4)])
        handles = []

        def spawn(worker_id):
            handle = _FakeHandle()
            handles.append(handle)
            return handle

        supervisor = Supervisor(
            location, tmp_path / "cache",
            max_workers=2, tasks_per_worker=1, spawn=spawn, quiet=True,
        )
        supervisor.step()
        assert len(handles) == 2
        # Workers exit promptly on the interrupt signal.
        for handle in handles:
            handle.exit_code = 130
        supervisor.shutdown(grace=1.0)
        import signal as _signal

        assert all(handle.signals == [_signal.SIGINT] for handle in handles)
        assert len(supervisor.workers) == 0
        assert set(supervisor.reaped.values()) == {130}
