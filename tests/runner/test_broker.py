"""Tests for the distributed backend: spool broker, worker daemon, engine path.

Three layers, cheapest first:

* unit tests of the lease protocol (atomicity, expiry, failure logs) driven
  entirely in-process;
* worker-loop tests calling :func:`repro.runner.worker.run_worker` directly;
* integration tests running real ``python -m repro.runner.worker``
  subprocesses against a grid submitted with
  ``ExecutionConfig(mode="distributed")``, including the
  dead-worker/lease-re-release recovery path and byte-identity with the
  serial engine.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sqlite3
import stat
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import EvaluationProtocol
from repro.runner import (
    ExecutionConfig,
    GridJob,
    RemoteTrialError,
    ResultCache,
    SpoolBroker,
    SpoolTimeout,
    TrialSpec,
    expand_jobs,
    last_report,
    run_experiment_grid,
)
from repro.runner.worker import run_worker

FAST = EvaluationProtocol(n_iterations=2, eval_every=2, n_seeds=2, dataset_scale=0.15)


def _spec(seed=0, framework="uncertainty", dataset="youtube"):
    return TrialSpec(framework=framework, dataset=dataset, seed=seed, protocol=FAST)


def _grid_jobs():
    return [
        GridJob(key="uncertainty", framework="uncertainty", dataset="youtube"),
        GridJob(key="nemo", framework="nemo", dataset="youtube"),
    ]


def _backdate(path, seconds=3600):
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


def _spawn_worker(subprocess_env, spool, cache_dir, *extra):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runner.worker",
            "--spool",
            str(spool),
            "--cache-dir",
            str(cache_dir),
            "--idle-timeout",
            "10",
            "--quiet",
            *extra,
        ],
        env=subprocess_env,
        stderr=subprocess.DEVNULL,
    )


class TestLeaseProtocol:
    def test_enqueue_creates_one_task_per_key(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        assert broker.enqueue(spec) is True
        assert broker.enqueue(spec) is False  # idempotent: same content key
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}

    def test_lease_is_exclusive_and_round_trips_the_spec(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        assert lease is not None
        assert lease.key == spec.key
        assert lease.spec == spec
        assert broker.lease_next("w2") is None  # claimed: nothing left
        broker.complete(lease)
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}

    def test_racing_leases_have_exactly_one_winner(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        broker.enqueue(_spec())
        barrier = threading.Barrier(8)

        def claim():
            barrier.wait()
            return broker.lease_next()

        with ThreadPoolExecutor(max_workers=8) as pool:
            wins = [lease for lease in pool.map(lambda _: claim(), range(8)) if lease]
        assert len(wins) == 1

    def test_enqueue_skips_actively_leased_trials(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        broker.lease_next()
        assert broker.enqueue(spec) is False  # a worker is on it
        assert broker.counts()["tasks"] == 0

    def test_release_reoffers_the_trial(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next()
        broker.release(lease)
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}
        assert broker.lease_next().key == spec.key

    def test_corrupt_task_file_is_quarantined_next_to_the_task(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        broker.task_path(spec).write_bytes(b"not a pickle")
        assert broker.lease_next() is None
        # Quarantined as <key>.task.corrupt in the task's home shard — NOT
        # inside leases/, where nothing ever cleans it up and post-mortems
        # would conflate it with a real claim.
        quarantine = broker.task_path(spec).with_name(f"{spec.key}.task.corrupt")
        assert quarantine.exists()
        assert not list(broker.leases_dir.glob("*"))
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 1}

    def test_reenqueue_after_quarantine_serves_a_fresh_copy(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        broker.task_path(spec).write_bytes(b"not a pickle")
        assert broker.lease_next() is None
        assert broker.counts()["corrupt"] == 1
        assert broker.enqueue(spec) is True  # self-heal: a fresh task file
        assert broker.lease_next().spec == spec

    @pytest.mark.parametrize("ttl", [0, -1, math.nan, math.inf, -math.inf])
    def test_constructor_rejects_a_nonpositive_lease_ttl(self, tmp_path, ttl):
        # NaN makes every age comparison false (a fresh lease looks expired,
        # a live one never looks fresh); inf cannot pace a heartbeat thread.
        with pytest.raises(ValueError, match="lease_ttl"):
            SpoolBroker(tmp_path, lease_ttl=ttl)

    def test_leftover_sqlite_queue_file_is_ignored(self, tmp_path):
        # A spool directory once shared with the SQLite queue may still hold
        # its database file; the spool neither reads nor touches it.
        stale = tmp_path / "broker.sqlite3"
        stale.write_bytes(b"SQLite format 3\x00 leftover queue")
        broker = SpoolBroker(tmp_path)
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}
        assert broker.backlog() == {"tasks": 0, "shards": 0, "leases": 0}
        spec = _spec()
        assert broker.enqueue(spec) is True
        broker.complete(broker.lease_next("w1"))
        assert broker.counts()["tasks"] == 0
        assert stale.read_bytes() == b"SQLite format 3\x00 leftover queue"

    def test_quarantine_survives_a_concurrently_pruned_shard_dir(
        self, tmp_path, monkeypatch
    ):
        """Claiming the last (corrupt) task empties its shard; if a sweep
        prunes the directory before the quarantine rename lands, the rename
        must recreate it — otherwise the garbage lingers in leases/ looking
        like a live claim."""
        import shutil

        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        broker.task_path(spec).write_bytes(b"not a pickle")
        shard_dir = broker.tasks_dir / "youtube"
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if not raced and str(dst).endswith(".task.corrupt"):
                raced.append(True)
                shutil.rmtree(shard_dir)  # the concurrent sweep's rmdir
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        assert broker.lease_next("w1") is None
        assert (shard_dir / f"{spec.key}.task.corrupt").exists()
        assert not list(broker.leases_dir.glob("*"))
        assert broker.counts()["corrupt"] == 1

    def test_enqueue_keeps_the_failure_log_when_the_write_fails(
        self, tmp_path, monkeypatch
    ):
        """Clearing the log is conditional on the retry task actually
        landing: a failed write must not discard the failure evidence."""
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker._ensure_dirs()
        broker.failure_path(spec.key).write_text(
            json.dumps({"key": spec.key, "worker": "w1", "error": "boom", "traceback": "tb"})
        )

        def failing_write(path, data):
            raise OSError("disk full")

        monkeypatch.setattr("repro.runner.brokers.spool.atomic_write_bytes", failing_write)
        with pytest.raises(OSError):
            broker.enqueue(spec)
        assert broker.failure_for(spec.key) is not None  # evidence preserved

    def test_enqueue_leaves_a_leased_trials_failure_log_alone(self, tmp_path):
        """Two-submitter regression: enqueue must only clear a failure log
        when it actually (re-)writes a task file — not for a currently
        leased, currently failing trial whose log the first submitter's
        wait() is about to raise."""
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")  # a worker holds the trial...
        broker.failure_path(spec.key).write_text(
            json.dumps({"key": spec.key, "worker": "w1", "error": "boom", "traceback": "tb"})
        )  # ...and its failure log has just landed
        # A second submitter re-offers the same trial: nothing to write
        # (it is leased), so nothing may be cleared either.
        assert SpoolBroker(tmp_path).enqueue(spec) is False
        assert broker.failure_for(spec.key) is not None
        broker.complete(lease)
        with pytest.raises(RemoteTrialError, match="boom"):
            broker.wait([spec], ResultCache(tmp_path / "cache"), timeout=5)
        # Once nothing is pending/leased, enqueue IS the retry path and
        # clears the stale log along with writing the fresh task file.
        assert broker.enqueue(spec) is True
        assert broker.failure_for(spec.key) is None


class TestShardedSpool:
    def test_enqueue_files_tasks_under_the_dataset_shard(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        assert broker.enqueue(spec) is True
        task = broker.tasks_dir / "youtube" / f"{spec.key}.task"
        assert task.exists() and task == broker.task_path(spec)
        assert broker.counts()["tasks"] == 1

    def test_shard_policies(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        assert broker.shard_for(spec) == "youtube"
        assert broker.task_path(spec).parent.name == "youtube"
        # A raw key carries no dataset: it falls back to the key prefix...
        assert broker.shard_for(spec.key) == spec.key[:2]
        # ...and so does a dataset name with no safe characters.
        unsafe = _spec(dataset="...")
        assert broker.shard_for(unsafe) == unsafe.key[:2]
        assert broker.task_path(unsafe).parent.name == unsafe.key[:2]

    def test_stale_flat_task_is_not_seen_and_enqueue_refiles_it(self, tmp_path):
        """A ``tasks/<key>.task`` left by a pre-sharding spool is invisible to
        every scan; enqueueing the trial files it under its shard instead."""
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.tasks_dir.mkdir(parents=True)
        stale = broker.tasks_dir / f"{spec.key}.task"
        stale.write_bytes(pickle.dumps(spec))
        assert broker.counts()["tasks"] == 0
        assert broker.backlog() == {"tasks": 0, "shards": 0, "leases": 0}
        assert broker.lease_batch("w1") == []
        assert broker.enqueue(spec) is True
        assert broker.task_path(spec).exists()
        lease = broker.lease_next("w1")
        assert lease is not None and lease.spec == spec
        assert broker.lease_next("w2") is None  # the stale copy is never claimed
        assert stale.exists()

    def test_lease_records_its_shard_and_release_restores_it(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        assert lease.lease_path.name.split(".")[1] == "youtube"
        broker.release(lease)
        assert (broker.tasks_dir / "youtube" / f"{spec.key}.task").exists()

    def test_lease_batch_caps_and_drains_exactly_once(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        for seed in range(5):
            broker.enqueue(_spec(seed=seed, dataset="youtube"))
        for seed in range(3):
            broker.enqueue(_spec(seed=seed, dataset="imdb"))
        claimed: list[str] = []
        while True:
            batch = broker.lease_batch("w1", limit=4)
            if not batch:
                break
            assert len(batch) <= 4  # the cap is never exceeded
            claimed.extend(lease.key for lease in batch)
            for lease in batch:
                broker.complete(lease)
        assert len(claimed) == len(set(claimed)) == 8

    def test_drained_shard_directories_are_removed(self, tmp_path):
        """Sweeping a drained shard prunes its directory, so idle polling on
        a finished grid goes back to one listing per poll."""
        broker = SpoolBroker(tmp_path)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        broker.complete(lease)
        assert broker.lease_batch("w1", limit=1) == []  # probes + prunes
        assert not (broker.tasks_dir / "youtube").exists()
        # ...and an enqueue simply recreates the shard.
        assert broker.enqueue(spec) is True
        assert broker.task_path(spec).exists()

    def test_enqueue_survives_a_shard_pruned_inside_mkdir(self, tmp_path, monkeypatch):
        """pathlib's ``mkdir(exist_ok=True)`` raises ``FileExistsError`` when
        the directory exists at its mkdir but a worker's prune removes it
        before its is_dir probe; enqueue must retry, not fail the request."""
        from pathlib import Path

        broker = SpoolBroker(tmp_path)
        broker._ensure_dirs()
        spec = _spec()
        real_mkdir = Path.mkdir
        raced = []

        def racing_mkdir(self, *args, **kwargs):
            if not raced and self == broker.task_path(spec).parent:
                raced.append(True)
                raise FileExistsError(17, "File exists", str(self))
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        assert broker.enqueue(spec) is True
        assert raced and broker.task_path(spec).exists()

    def test_consecutive_batches_prefer_the_same_shard(self, tmp_path):
        """Dataset affinity: a worker that claimed from one shard keeps
        draining it before moving on (its generated corpus stays warm)."""
        broker = SpoolBroker(tmp_path)
        for seed in range(6):
            broker.enqueue(_spec(seed=seed, dataset="youtube"))
            broker.enqueue(_spec(seed=seed, dataset="imdb"))
        first = broker.lease_batch("w1", limit=2)
        first_shard = first[0].lease_path.name.split(".")[1]
        for _ in range(2):  # the shard still has tasks: stick to it
            batch = broker.lease_batch("w1", limit=2)
            assert {l.lease_path.name.split(".")[1] for l in batch} == {first_shard}

    def test_stats_count_listings_and_renames(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        for seed in range(4):
            broker.enqueue(_spec(seed=seed))
        before = broker.stats.listings
        batch = broker.lease_batch("w1", limit=4)
        assert len(batch) == 4
        assert broker.stats.claims == 4
        assert broker.stats.rename_attempts == 4
        assert broker.stats.failed_renames == 0
        # One batch = one tasks/ listing + one shard listing.
        assert broker.stats.listings - before == 2
        assert broker.stats.renames_per_claim() == 1.0


class TestContention:
    N_WORKERS = 8

    def _drain(self, spool, specs, batch):
        submitter = SpoolBroker(spool)
        for spec in specs:
            assert submitter.enqueue(spec)
        brokers = [SpoolBroker(spool) for _ in range(self.N_WORKERS)]
        barrier = threading.Barrier(self.N_WORKERS)
        claimed: list[list[str]] = [[] for _ in range(self.N_WORKERS)]
        batch_sizes: list[int] = []

        def work(i):
            barrier.wait()
            while True:
                leases = brokers[i].lease_batch(f"w{i}", limit=batch)
                if not leases:
                    return
                batch_sizes.append(len(leases))
                for lease in leases:
                    claimed[i].append(lease.key)
                    brokers[i].complete(lease)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(self.N_WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert max(batch_sizes) <= batch  # the cap is never exceeded
        return [key for per_worker in claimed for key in per_worker]

    def test_sharded_batched_race_is_exactly_once(self, tmp_path):
        """8 racing workers over a 2-shard spool: every task executes exactly
        once, and no batch exceeds its cap."""
        specs = [
            _spec(seed=seed, dataset=dataset)
            for seed in range(40)
            for dataset in ("youtube", "imdb")
        ]
        keys = self._drain(tmp_path / "sharded", specs, batch=8)
        assert sorted(keys) == sorted(spec.key for spec in specs)

    def test_interrupted_worker_releases_its_unstarted_batch(self, tmp_path, monkeypatch):
        broker = SpoolBroker(tmp_path / "spool")
        for seed in range(4):
            broker.enqueue(_spec(seed=seed))

        def interrupted_trial(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.runner.worker.run_trial", interrupted_trial)
        with pytest.raises(KeyboardInterrupt):
            run_worker(tmp_path / "spool", tmp_path / "cache", claim_batch=4, quiet=True)
        # The interrupted trial AND the claimed-but-unstarted remainder of
        # the batch are all re-offered; nothing is left leased.
        assert broker.counts() == {"tasks": 4, "leases": 0, "failed": 0, "corrupt": 0}


class TestCrashRecovery:
    def test_expired_lease_is_reoffered(self, tmp_path):
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("doomed")
        _backdate(lease.lease_path)
        assert broker.release_expired() == 1
        assert broker.counts()["tasks"] == 1
        assert broker.lease_next().key == spec.key

    def test_fresh_lease_survives_the_sweep(self, tmp_path):
        broker = SpoolBroker(tmp_path, lease_ttl=3600)
        broker.enqueue(_spec())
        broker.lease_next()
        assert broker.release_expired() == 0
        assert broker.counts()["leases"] == 1

    def test_sweep_is_scoped_to_the_submitters_keys(self, tmp_path):
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        mine, theirs = _spec(seed=1), _spec(seed=2)
        for spec in (mine, theirs):
            broker.enqueue(spec)
            _backdate(broker.lease_next().lease_path)
        assert broker.release_expired(keys=[mine.key]) == 1
        assert broker.counts() == {"tasks": 1, "leases": 1, "failed": 0, "corrupt": 0}

    def test_expired_sharded_lease_is_restored_to_its_shard(self, tmp_path):
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("doomed")
        _backdate(lease.lease_path)
        assert broker.release_expired() == 1
        # Re-offered into tasks/youtube/, not some other location: crash
        # recovery preserves the task's dataset affinity.
        assert (broker.tasks_dir / "youtube" / f"{spec.key}.task").exists()

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        broker.enqueue(_spec())
        lease = broker.lease_next()
        _backdate(lease.lease_path)
        broker.heartbeat(lease)  # what the worker's background thread does
        assert broker.release_expired() == 0

    def test_dropping_an_already_reoffered_lease_is_not_a_release(self, tmp_path):
        """Two submitters policing one spool must not double-count a re-offer."""
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("doomed")
        _backdate(lease.lease_path)
        assert broker.release_expired() == 1  # submitter 1 re-offers
        # Simulate submitter 2's sweep finding the same expired lease still
        # on disk next to the re-offered task (the unlink raced).
        lease.lease_path.write_bytes(b"stale")
        _backdate(lease.lease_path)
        assert broker.release_expired() == 0  # cleanup, not a second re-offer
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}

    def test_revoked_claim_cannot_write_a_failure_log(self, tmp_path):
        """A stale holder's local error must not abort the healthy retry."""
        broker = SpoolBroker(tmp_path, lease_ttl=5)
        spec = _spec()
        broker.enqueue(spec)
        stale = broker.lease_next("stalled-worker")
        _backdate(stale.lease_path)
        broker.release_expired()  # claim revoked, trial re-offered
        fresh = broker.lease_next("healthy-worker")
        assert fresh is not None and fresh.lease_path != stale.lease_path
        broker.fail(stale, "stalled-worker", RuntimeError("local OOM"), "tb")
        assert broker.failure_for(spec.key) is None  # log suppressed
        assert fresh.lease_path.exists()  # the live claim is untouched
        broker.complete(stale)  # ownership also protects complete()
        assert fresh.lease_path.exists()

    def test_wait_timeout_extends_while_a_lease_is_fresh(self, tmp_path):
        """The timeout detects abandonment, not long trials."""
        import time

        from repro.runner import ResultCache

        broker = SpoolBroker(tmp_path / "spool", lease_ttl=1.0)
        spec = _spec()
        broker.enqueue(spec)
        broker.lease_next("slow-but-alive")  # fresh mtime, never heartbeats
        start = time.monotonic()
        with pytest.raises(SpoolTimeout):
            broker.wait([spec], ResultCache(tmp_path / "cache"), timeout=0.4)
        # The first deadline (0.4s) was extended because the lease was
        # fresh; only after the TTL expired it (>= 1s) could abandonment be
        # declared.
        assert time.monotonic() - start >= 1.0


class TestWorkerLoop:
    def test_worker_executes_and_caches(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool")
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(seed=s) for s in (1, 2)]
        for spec in specs:
            broker.enqueue(spec)
        executed = run_worker(
            tmp_path / "spool", tmp_path / "cache", idle_timeout=0.05, quiet=True
        )
        assert executed == 2
        assert all(cache.get(spec) is not None for spec in specs)
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}

    def test_worker_respects_max_trials(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool")
        for seed in (1, 2, 3):
            broker.enqueue(_spec(seed=seed))
        executed = run_worker(
            tmp_path / "spool", tmp_path / "cache", max_trials=2, quiet=True
        )
        assert executed == 2
        assert broker.counts()["tasks"] == 1

    def test_worker_skips_already_cached_trials(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool")
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        from repro.runner import run_trial

        cache.put(spec, run_trial(spec))
        broker.enqueue(spec)
        executed = run_worker(
            tmp_path / "spool", tmp_path / "cache", idle_timeout=0.05, quiet=True
        )
        assert executed == 0  # served by content addressing, not re-executed
        assert broker.counts()["tasks"] == 0

    def test_failing_trial_writes_a_failure_log(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool")
        bad = _spec(dataset="no-such-dataset")
        broker.enqueue(bad)
        executed = run_worker(
            tmp_path / "spool",
            tmp_path / "cache",
            idle_timeout=0.05,
            worker_id="w-under-test",
            quiet=True,
        )
        assert executed == 0
        failure = broker.failure_for(bad.key)
        assert failure is not None
        assert failure["worker"] == "w-under-test"
        assert "no-such-dataset" in failure["traceback"]
        # The submitter surfaces the remote traceback.
        with pytest.raises(RemoteTrialError, match="no-such-dataset"):
            broker.wait([bad], ResultCache(tmp_path / "cache"), timeout=5)

    def test_error_escaping_the_batch_loop_releases_and_stops_heartbeating(
        self, tmp_path, monkeypatch
    ):
        """If even the failure-log write blows up, the worker must not leak
        its heartbeat thread — a leaked heartbeat keeps the batch's leases
        eternally fresh and defeats the submitter's abandonment timeout."""
        broker = SpoolBroker(tmp_path / "spool")
        for seed in range(3):
            broker.enqueue(_spec(seed=seed))

        def bad_trial(spec):
            raise ValueError("trial blew up")

        def bad_fail(lease, worker_id, error, traceback_text):
            raise OSError("failed/ is on a full disk")

        monkeypatch.setattr("repro.runner.worker.run_trial", bad_trial)
        monkeypatch.setattr(SpoolBroker, "fail", staticmethod(bad_fail))
        threads_before = set(threading.enumerate())
        with pytest.raises(OSError, match="full disk"):
            run_worker(tmp_path / "spool", tmp_path / "cache", claim_batch=3, quiet=True)
        # Everything claimed was re-offered and nothing is still heartbeating.
        assert broker.counts()["tasks"] == 3
        assert broker.counts()["leases"] == 0
        leaked = [t for t in threading.enumerate() if t not in threads_before]
        assert leaked == []  # the heartbeat thread was stopped and joined

    def test_idle_clock_starts_after_the_batch_finishes(self, tmp_path, monkeypatch):
        """A batch longer than idle_timeout must not make the first empty
        poll after it count as idle_timeout seconds of idleness — the
        worker has to keep serving the spool for idle_timeout AFTER its
        last batch."""
        from repro.runner import run_trial

        spec = _spec()
        broker = SpoolBroker(tmp_path / "spool")
        broker.enqueue(spec)
        history = run_trial(spec)

        def slow_trial(s):
            time.sleep(0.5)
            return history

        monkeypatch.setattr("repro.runner.worker.run_trial", slow_trial)
        started = time.monotonic()
        executed = run_worker(
            tmp_path / "spool", tmp_path / "cache", idle_timeout=0.3, quiet=True
        )
        elapsed = time.monotonic() - started
        assert executed == 1
        # trial (0.5s) + a full idle window (0.3s) before giving up; the
        # pre-fix worker exited right after the trial (elapsed ~0.5s).
        assert elapsed >= 0.75

    def test_slow_result_publish_keeps_the_lease_heartbeating(self, tmp_path, monkeypatch):
        """A cache.put slower than the TTL (NFS stall, huge history) must not
        let the lease expire: the completed trial would be re-offered and
        re-executed by another worker."""
        from repro.runner import run_trial

        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        spec = _spec()
        broker = SpoolBroker(spool, lease_ttl=1.0)
        broker.enqueue(spec)
        history = run_trial(spec)
        monkeypatch.setattr("repro.runner.worker.run_trial", lambda s: history)

        real_put = ResultCache.put

        def slow_put(self, key, value, wall_seconds=None):
            time.sleep(2.5)  # well past the 1.0s TTL
            return real_put(self, key, value, wall_seconds=wall_seconds)

        monkeypatch.setattr(ResultCache, "put", slow_put)
        released = []
        worker = threading.Thread(
            target=run_worker,
            args=(spool, cache_dir),
            kwargs={"max_trials": 1, "lease_ttl": 1.0, "quiet": True},
        )
        worker.start()
        deadline = time.monotonic() + 4.0
        while worker.is_alive() and time.monotonic() < deadline:
            released.append(broker.release_expired())
            time.sleep(0.2)
        worker.join(timeout=30)
        assert sum(released) == 0  # the heartbeat outlived the slow publish
        assert ResultCache(cache_dir).get(spec) is not None
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}

    def test_failed_publish_reoffers_the_trial_and_the_retry_lands(self, tmp_path, monkeypatch):
        """A blob write that dies mid-``put`` (disk full) is worker-side
        infrastructure, not a trial failure: no failure log, the lease is
        re-offered, and the retry publishes exactly one blob and index row."""
        import repro.runner.results.pickle_store as pickle_store

        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        spec = _spec()
        broker = SpoolBroker(spool)
        broker.enqueue(spec)
        real_write = pickle_store.atomic_write_bytes
        calls = []

        def write_fails_once(path, data):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("disk full")
            return real_write(path, data)

        monkeypatch.setattr(pickle_store, "atomic_write_bytes", write_fails_once)
        executed = run_worker(
            spool, cache_dir, max_trials=1, idle_timeout=5, poll_interval=0.01, quiet=True
        )
        assert executed == 1
        assert len(calls) == 2  # the failed publish, then the retry's
        assert broker.failure_for(spec) is None
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}
        cache = ResultCache(cache_dir)
        assert cache.get(spec) is not None
        assert list(cache.path_for(spec).parent.glob("*.tmp")) == []
        with sqlite3.connect(cache_dir / "results.sqlite3") as db:
            (rows,) = db.execute(
                "SELECT COUNT(*) FROM trials WHERE key = ?", (spec.key,)
            ).fetchone()
        assert rows == 1

    def test_enqueue_clears_stale_failure_logs(self, tmp_path):
        broker = SpoolBroker(tmp_path / "spool")
        bad = _spec(dataset="no-such-dataset")
        broker.enqueue(bad)
        run_worker(tmp_path / "spool", tmp_path / "cache", idle_timeout=0.05, quiet=True)
        assert broker.failure_for(bad.key) is not None
        broker.enqueue(bad)  # the retry path after fixing the environment
        assert broker.failure_for(bad.key) is None
        assert broker.counts()["tasks"] == 1


def _await_wake_reader(spool, timeout=60.0):
    """Block until some worker holds the spool's wake pipe open for reading."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            # ENOENT until the pipe is made, ENXIO until a reader opens it.
            fd = os.open(spool / "wake", os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            time.sleep(0.01)
            continue
        os.close(fd)
        return
    raise AssertionError(f"no worker listened on {spool / 'wake'} within {timeout}s")


def _seconds_until_claimed(spool, spec, timeout=30.0):
    """Enqueue *spec* through a fresh handle; seconds until a worker claims it."""
    broker = SpoolBroker(spool)
    started = time.monotonic()
    assert broker.enqueue(spec)
    while broker.task_path(spec).exists() and time.monotonic() - started < timeout:
        time.sleep(0.005)
    return time.monotonic() - started


def _worker_thread(spool, cache_dir, **kwargs):
    """``run_worker`` on a daemon thread; ``result["executed"]`` once it returns."""
    result = {}

    def target():
        result["executed"] = run_worker(str(spool), str(cache_dir), quiet=True, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestWake:
    """Idle workers wait on ``<spool>/wake`` and scan as soon as a task appears."""

    def test_idle_thread_worker_wakes_on_an_enqueue_through_another_handle(self, tmp_path):
        spool = tmp_path / "spool"
        thread, result = _worker_thread(
            spool, tmp_path / "cache", poll_interval=30, max_trials=1
        )
        _await_wake_reader(spool)
        # Without the wake the claim would wait out the 30 s poll interval.
        assert _seconds_until_claimed(spool, _spec()) < 1.0
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["executed"] == 1

    def test_idle_worker_process_wakes_on_an_enqueue(self, tmp_path, subprocess_env):
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        worker = _spawn_worker(
            subprocess_env, spool, cache_dir, "--poll-interval", "30", "--max-trials", "1"
        )
        try:
            _await_wake_reader(spool)
            assert stat.S_ISFIFO(os.stat(spool / "wake").st_mode)
            assert _seconds_until_claimed(spool, _spec()) < 1.0
            assert worker.wait(timeout=120) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        assert ResultCache(cache_dir).get(_spec()) is not None

    def test_a_lost_wake_costs_at_most_one_poll_tick(self, tmp_path, monkeypatch):
        monkeypatch.setattr(SpoolBroker, "_wake", lambda self: None)
        spool = tmp_path / "spool"
        thread, result = _worker_thread(
            spool, tmp_path / "cache", poll_interval=1.0, max_trials=1
        )
        _await_wake_reader(spool)
        # One 1 s tick, plus slack for a loaded host.
        assert _seconds_until_claimed(spool, _spec()) < 2.0
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["executed"] == 1

    def test_a_regular_file_at_the_wake_path_falls_back_to_sleeping(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "wake").write_bytes(b"not a pipe")
        broker = SpoolBroker(spool)
        started = time.monotonic()
        broker.wait_for_work(0.1)
        broker.wait_for_work(0.1)
        assert time.monotonic() - started >= 0.2  # both calls slept
        thread, result = _worker_thread(
            spool, tmp_path / "cache", poll_interval=0.05, max_trials=1
        )
        time.sleep(0.2)  # the worker idles through a few fallback sleeps
        assert SpoolBroker(spool).enqueue(_spec())
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["executed"] == 1
        # Neither the enqueue's wake nor the worker wrote into the file.
        assert (spool / "wake").read_bytes() == b"not a pipe"

    def test_a_stale_pipe_left_by_a_dead_worker_is_reused(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        os.mkfifo(spool / "wake")  # what a killed worker leaves behind
        thread, result = _worker_thread(
            spool, tmp_path / "cache", poll_interval=30, max_trials=1
        )
        _await_wake_reader(spool)
        assert _seconds_until_claimed(spool, _spec()) < 1.0
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert result["executed"] == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_worker_closes_its_wake_reader_on_exit(self, tmp_path):
        spool = tmp_path / "spool"
        before = _open_fds()
        run_worker(spool, tmp_path / "cache", idle_timeout=0.2, poll_interval=0.05, quiet=True)
        assert stat.S_ISFIFO(os.stat(spool / "wake").st_mode)  # it did listen
        assert _open_fds() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_worker_closes_its_wake_reader_when_interrupted(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"

        def interrupted(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.runner.worker.run_trial", interrupted)
        def submit_once_listening():
            _await_wake_reader(spool)
            SpoolBroker(spool).enqueue(_spec())

        before = _open_fds()
        submitter = threading.Thread(target=submit_once_listening, daemon=True)
        submitter.start()
        with pytest.raises(KeyboardInterrupt):
            run_worker(spool, tmp_path / "cache", poll_interval=30, quiet=True)
        submitter.join(timeout=10)
        assert not submitter.is_alive()
        assert _open_fds() == before
        assert SpoolBroker(spool).counts()["tasks"] == 1  # re-offered

    def test_close_drops_the_reader_and_keeps_the_pipe(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        broker.close()  # never listened: nothing to close
        broker.wait_for_work(0.0)  # makes and opens the pipe
        fd = broker._wake_fd
        assert fd is not None
        broker.close()
        with pytest.raises(OSError):
            os.fstat(fd)
        assert stat.S_ISFIFO(os.stat(tmp_path / "wake").st_mode)

    def test_wait_drains_every_pending_wake(self, tmp_path):
        submitter, worker = SpoolBroker(tmp_path), SpoolBroker(tmp_path)
        worker.wait_for_work(0.0)
        submitter.enqueue_batch([_spec(seed=seed) for seed in range(3)])
        for seed in range(3, 6):
            submitter.enqueue(_spec(seed=seed))
        started = time.monotonic()
        worker.wait_for_work(30.0)
        assert time.monotonic() - started < 1.0
        started = time.monotonic()
        worker.wait_for_work(0.2)  # nothing left: waits out the timeout
        assert time.monotonic() - started >= 0.15
        worker.close()

    def test_release_and_expiry_wake_a_waiting_worker(self, tmp_path):
        waiting, other = SpoolBroker(tmp_path), SpoolBroker(tmp_path)
        waiting.wait_for_work(0.0)
        other.enqueue(_spec(seed=1))
        other.enqueue(_spec(seed=2))
        waiting.wait_for_work(0.0)  # drain the enqueues' wakes
        released, expired = other.lease_next("w1"), other.lease_next("w2")
        other.release(released)
        started = time.monotonic()
        waiting.wait_for_work(30.0)
        assert time.monotonic() - started < 1.0
        _backdate(expired.lease_path)
        assert other.release_expired() == 1
        started = time.monotonic()
        waiting.wait_for_work(30.0)
        assert time.monotonic() - started < 1.0
        waiting.close()

    def test_enqueue_never_blocks_on_a_missing_unread_or_full_pipe(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        assert broker.enqueue(_spec(seed=1))  # no pipe yet: ENOENT
        os.mkfifo(tmp_path / "wake")
        assert broker.enqueue(_spec(seed=2))  # no reader: ENXIO
        worker = SpoolBroker(tmp_path)
        worker.wait_for_work(0.0)
        fd = os.open(tmp_path / "wake", os.O_WRONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(BlockingIOError):
                while True:
                    os.write(fd, b"\0")
        finally:
            os.close(fd)
        assert broker.enqueue(_spec(seed=3))  # full pipe: EAGAIN
        assert broker.counts()["tasks"] == 3
        worker.close()

    def test_queue_views_ignore_the_wake_pipe(self, tmp_path):
        broker = SpoolBroker(tmp_path)
        broker.enqueue(_spec())
        broker.wait_for_work(0.0)
        assert stat.S_ISFIFO(os.stat(tmp_path / "wake").st_mode)
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}
        assert broker.backlog() == {"tasks": 1, "shards": 1, "leases": 0}
        round_ = broker.poll({_spec().key: _spec()}, ResultCache(tmp_path / "cache"))
        assert (round_.done, round_.failed, round_.requeued) == ({}, {}, 0)
        broker.close()


class TestExecutionConfig:
    def test_distributed_requires_spool_and_cache(self, tmp_path):
        with pytest.raises(ValueError, match="spool_dir"):
            ExecutionConfig(mode="distributed", cache_dir=tmp_path)
        with pytest.raises(ValueError, match="cache_dir"):
            ExecutionConfig(mode="distributed", spool_dir=tmp_path, cache_dir=None)

    def test_unknown_mode_and_preset_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ExecutionConfig(mode="cluster")
        with pytest.raises(ValueError, match="preset"):
            ExecutionConfig.coerce("cluster")
        with pytest.raises(TypeError):
            ExecutionConfig.coerce(4)

    def test_string_presets(self, tmp_path, monkeypatch):
        assert ExecutionConfig.coerce(None) == ExecutionConfig()
        assert ExecutionConfig.coerce("serial").workers == 1
        assert ExecutionConfig.coerce("parallel").workers == 0
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path / "spool"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        coerced = ExecutionConfig.coerce("distributed")
        assert coerced.mode == "distributed"
        assert str(coerced.spool_dir) == str(tmp_path / "spool")

    def test_wait_timeout_without_workers(self, tmp_path):
        execution = ExecutionConfig(
            mode="distributed",
            spool_dir=tmp_path / "spool",
            cache_dir=tmp_path / "cache",
            wait_timeout=0.3,
        )
        with pytest.raises(SpoolTimeout, match="workers running"):
            run_experiment_grid(_grid_jobs()[:1], FAST, execution)
        # The trials stayed enqueued for whenever workers do appear.
        assert SpoolBroker(tmp_path / "spool").counts()["tasks"] == FAST.n_seeds


def _start_worker(spool, cache_dir, ttl):
    return run_worker(spool, cache_dir, lease_ttl=ttl, idle_timeout=0.05, quiet=True)


def _start_supervisor(spool, cache_dir, ttl):
    from repro.runner.supervisor import Supervisor

    return Supervisor(spool, cache_dir, lease_ttl=ttl, quiet=True)


def _start_service(spool, cache_dir, ttl):
    from repro.serving import LabelingService

    service = LabelingService(spool, cache_dir, lease_ttl=ttl)
    service.close()  # only reached when the TTL was (wrongly) accepted


def _submit_distributed_grid(spool, cache_dir, ttl):
    execution = ExecutionConfig(
        mode="distributed", spool_dir=spool, cache_dir=cache_dir,
        lease_ttl=ttl, wait_timeout=0.3,
    )
    return run_experiment_grid(_grid_jobs()[:1], FAST, execution)


@pytest.mark.parametrize(
    "start",
    [_start_worker, _start_supervisor, _start_service, _submit_distributed_grid],
    ids=["worker", "supervisor", "service", "distributed-grid"],
)
def test_every_spool_user_rejects_a_nan_lease_ttl_before_touching_the_spool(tmp_path, start):
    """The worker, supervisor and server CLIs pass ``--lease-ttl`` through
    unchecked, so the spool's own validation is the one guard."""
    spool = tmp_path / "spool"
    with pytest.raises(ValueError, match="lease_ttl"):
        start(spool, tmp_path / "cache", math.nan)
    assert not spool.exists() or list(spool.rglob("*")) == []


class TestDistributedGrid:
    def test_matches_serial_run_with_two_worker_processes(self, tmp_path, subprocess_env):
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        workers = [_spawn_worker(subprocess_env, spool, cache_dir) for _ in range(2)]
        try:
            distributed = run_experiment_grid(
                _grid_jobs(),
                FAST,
                ExecutionConfig(
                    mode="distributed",
                    spool_dir=spool,
                    cache_dir=cache_dir,
                    wait_timeout=120,
                ),
            )
        finally:
            exit_codes = [worker.wait(timeout=60) for worker in workers]
        assert exit_codes == [0, 0]
        report = last_report()
        assert report.n_remote == 2 * FAST.n_seeds
        assert report.n_executed == 0
        assert (
            report.n_remote + report.n_cached + report.n_deduplicated == report.n_trials
        )

        serial = run_experiment_grid(_grid_jobs(), FAST, ExecutionConfig(workers=1))
        for key in serial:
            for ours, theirs in zip(serial[key].histories, distributed[key].histories):
                assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_dead_workers_trial_is_rereleased_and_completed(
        self, tmp_path, subprocess_env
    ):
        """Killing a worker mid-grid: its lease expires and another finishes."""
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        broker = SpoolBroker(spool, lease_ttl=1.0)
        jobs = _grid_jobs()[:1]
        specs = [spec for _, spec in expand_jobs(jobs, FAST)]
        # Simulate a worker that claimed a trial and was then SIGKILLed: the
        # lease exists, nobody heartbeats it, and its mtime is already old.
        broker.enqueue(specs[0])
        dead_lease = broker.lease_next("killed-mid-trial")
        assert dead_lease is not None
        _backdate(dead_lease.lease_path)

        live = _spawn_worker(subprocess_env, spool, cache_dir, "--lease-ttl", "1.0")
        try:
            results = run_experiment_grid(
                jobs,
                FAST,
                ExecutionConfig(
                    mode="distributed",
                    spool_dir=spool,
                    cache_dir=cache_dir,
                    lease_ttl=1.0,
                    wait_timeout=120,
                ),
            )
        finally:
            assert live.wait(timeout=60) == 0
        report = last_report()
        assert report.n_remote == FAST.n_seeds
        assert report.n_released >= 1  # crash recovery actually fired
        assert len(results[jobs[0].key].histories) == FAST.n_seeds

    def test_warm_rerun_is_served_from_cache_without_workers(self, tmp_path):
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        jobs = _grid_jobs()[:1]
        # Cold run: an in-thread worker drains the spool while we wait.
        worker = threading.Thread(
            target=run_worker,
            args=(spool, cache_dir),
            kwargs={"max_trials": FAST.n_seeds, "quiet": True},
        )
        worker.start()
        execution = ExecutionConfig(
            mode="distributed", spool_dir=spool, cache_dir=cache_dir, wait_timeout=120
        )
        try:
            cold = run_experiment_grid(jobs, FAST, execution)
        finally:
            worker.join(timeout=60)
        assert last_report().n_remote == FAST.n_seeds
        # Warm rerun: every trial is a cache hit; no worker needed, the
        # spool is never touched (wait_timeout would fire if it were).
        warm = run_experiment_grid(jobs, FAST, execution)
        report = last_report()
        assert report.n_cached == FAST.n_seeds and report.n_remote == 0
        for ours, theirs in zip(
            cold[jobs[0].key].histories, warm[jobs[0].key].histories
        ):
            assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_legacy_unsharded_spool_drains_with_byte_identity(self, tmp_path):
        """Pending tasks a pre-sharding spool left directly under ``tasks/``
        are not scanned; the submitter files each trial under its shard, and
        every trial still runs exactly once with identical results."""
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        jobs = _grid_jobs()[:1]
        specs = [spec for _, spec in expand_jobs(jobs, FAST)]
        (spool / "tasks").mkdir(parents=True)
        for spec in specs:
            (spool / "tasks" / f"{spec.key}.task").write_bytes(pickle.dumps(spec))
        worker = threading.Thread(
            target=run_worker,
            args=(spool, cache_dir),
            kwargs={"max_trials": len(specs), "quiet": True},
        )
        worker.start()
        try:
            distributed = run_experiment_grid(
                jobs,
                FAST,
                ExecutionConfig(
                    mode="distributed",
                    spool_dir=spool,
                    cache_dir=cache_dir,
                    wait_timeout=120,
                ),
            )
        finally:
            worker.join(timeout=60)
        assert last_report().n_remote == len(specs)
        assert SpoolBroker(spool).counts()["tasks"] == 0  # drained, no dupes
        serial = run_experiment_grid(jobs, FAST, ExecutionConfig(workers=1))
        for ours, theirs in zip(
            serial[jobs[0].key].histories, distributed[jobs[0].key].histories
        ):
            assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_vanished_task_is_reenqueued_by_the_submitter(self, tmp_path):
        spool, cache_dir = tmp_path / "spool", tmp_path / "cache"
        spec = _spec()
        broker = SpoolBroker(spool)
        broker.enqueue(spec)
        broker.task_path(spec).unlink()  # spool wiped under us
        with pytest.raises(SpoolTimeout):
            broker.wait([spec], ResultCache(cache_dir), timeout=0.3)
        assert broker.counts()["tasks"] == 1  # self-healed before timing out
