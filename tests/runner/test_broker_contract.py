"""Contract suite for :class:`~repro.runner.brokers.spool.SpoolBroker`.

``tests/runner/test_broker.py`` pins the spool's *implementation*
(lease-file names, shard directories, listing counts); this module pins the
queue's *contract* (listed in the :mod:`repro.runner.brokers.spool`
docstring) — the semantics the engine, the worker daemon and the
supervisor rely on.  Each test runs
twice over one spool directory: once through a single
:class:`~repro.runner.SpoolBroker` handle (``[spool]``) and once through
:class:`_SplitHandles` (``[spool-split]``), which routes the submitter's
calls and a worker's calls to two independent handles, as the engine and a
worker daemon in different processes would hold them.  The split run fails
if any part of the contract lives in one handle's memory instead of on
disk.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.results import RunHistory
from repro.experiments import EvaluationProtocol
from repro.runner import (
    RemoteTrialError,
    ResultCache,
    SpoolBroker,
    SpoolTimeout,
    TrialSpec,
)

FAST = EvaluationProtocol(n_iterations=2, eval_every=2, n_seeds=2, dataset_scale=0.15)


def _spec(seed=0, framework="uncertainty", dataset="youtube"):
    return TrialSpec(framework=framework, dataset=dataset, seed=seed, protocol=FAST)


def _history(spec):
    # The cache quarantines anything that is not a RunHistory, so fake
    # workers must publish the real type.
    return RunHistory(framework=spec.framework, dataset=spec.dataset, seed=spec.seed)


class _SplitHandles:
    """One queue seen through two handles: a submitter's and a worker's.

    Claim-side calls (and the per-instance ``stats`` they count) go to the
    worker handle; everything else — enqueueing, waiting, expiry sweeps,
    failure lookups, introspection — goes to the submitter handle.
    """

    _WORKER_SIDE = frozenset(
        {"lease_next", "lease_batch", "heartbeat", "complete", "release", "fail", "stats"}
    )

    def __init__(self, submitter, worker):
        self._submitter = submitter
        self._worker = worker

    def __getattr__(self, name):
        side = self._worker if name in self._WORKER_SIDE else self._submitter
        return getattr(side, name)


@pytest.fixture(params=[False, True], ids=["spool", "spool-split"])
def make_broker(request, tmp_path):
    """Factory building broker handles over one spool.

    Multiple calls share the same location (the multi-submitter /
    multi-worker scenarios need independent instances over one queue).
    """

    def build(**kwargs):
        kwargs.setdefault("lease_ttl", 60.0)
        location = tmp_path / "queue"
        if request.param:
            return _SplitHandles(
                SpoolBroker(location, **kwargs), SpoolBroker(location, **kwargs)
            )
        return SpoolBroker(location, **kwargs)

    return build


def _claim_all(broker, worker_id):
    """Claim one trial at a time until the queue has nothing left to offer."""
    leases = []
    while (lease := broker.lease_next(worker_id)) is not None:
        leases.append(lease)
    return leases


def _backdate_lease(lease, seconds=3600.0):
    """Age a claim's heartbeat so the TTL sees it as abandoned."""
    stamp = lease.lease_path.stat().st_mtime - seconds
    os.utime(lease.lease_path, (stamp, stamp))


class TestEnqueueContract:
    def test_enqueue_is_idempotent_per_content_key(self, make_broker):
        broker = make_broker()
        spec = _spec()
        assert broker.enqueue(spec) is True
        assert broker.enqueue(spec) is False
        assert broker.counts() == {"tasks": 1, "leases": 0, "failed": 0, "corrupt": 0}

    def test_enqueue_skips_claimed_trials(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        broker.lease_next("w1")
        assert broker.enqueue(spec) is False
        counts = broker.counts()
        assert counts["tasks"] == 0 and counts["leases"] == 1

    def test_enqueue_batch_counts_only_new_trials(self, make_broker):
        broker = make_broker()
        specs = [_spec(seed=seed) for seed in range(6)]
        assert broker.enqueue_batch(specs) == 6
        assert broker.enqueue_batch(specs) == 0  # all already pending
        broker.lease_batch("w1", limit=2)
        more = specs + [_spec(seed=6)]
        # Pending and leased trials both skipped; only the new one lands.
        assert broker.enqueue_batch(more) == 1
        counts = broker.counts()
        assert counts["tasks"] == 5 and counts["leases"] == 2

    def test_enqueue_batch_deduplicates_within_the_batch(self, make_broker):
        broker = make_broker()
        spec = _spec()
        assert broker.enqueue_batch([spec, spec, spec]) == 1
        assert broker.counts()["tasks"] == 1

    def test_enqueue_batch_matches_serial_enqueue_results(self, make_broker):
        batched = make_broker()
        specs = [_spec(seed=seed, dataset=ds) for seed in range(4)
                 for ds in ("youtube", "imdb")]
        assert batched.enqueue_batch(specs) == sum(1 for _ in specs)
        serial_keys = {spec.key for spec in specs}
        drained = {lease.key for lease in batched.lease_batch("w", limit=100)}
        assert drained == serial_keys

    def test_enqueue_after_complete_offers_the_trial_again(self, make_broker):
        # Once nothing is pending or leased, enqueue is the retry path.
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        broker.complete(broker.lease_next("w1"))
        assert broker.enqueue(spec) is True
        assert broker.counts()["tasks"] == 1
        assert broker.lease_next("w2").spec == spec


class TestShardContract:
    def test_every_backend_files_trials_under_one_shard_rule(self, make_broker):
        """The dataset names the shard; a raw key, or a dataset with no safe
        characters, falls back to the key's first two hex characters."""
        broker = make_broker()
        spec, unsafe = _spec(), _spec(dataset="...")
        assert broker.shard_for(spec) == "youtube"
        assert broker.shard_for(spec.key) == spec.key[:2]
        assert broker.shard_for(unsafe) == unsafe.key[:2]
        assert broker.enqueue_batch([spec, unsafe]) == 2
        assert broker.backlog()["shards"] == 2
        leased = {lease.key: lease.spec for lease in broker.lease_batch("w1", limit=2)}
        assert leased == {spec.key: spec, unsafe.key: unsafe}

    def test_dotted_dataset_and_worker_names_keep_claims_recoverable(self, make_broker):
        # Shard labels and worker ids become parts of spool names that are
        # split on dots, so both must be sanitised before they get there.
        broker = make_broker()
        spec = _spec(dataset="yt.v2")
        shard = broker.shard_for(spec)
        assert "." not in shard and shard
        broker.enqueue(spec)
        lease = broker.lease_next("host.example.org/w 1")
        assert lease.key == spec.key and lease.spec == spec
        _backdate_lease(lease)
        assert broker.release_expired(keys=[spec.key], shards=[shard]) == 1
        assert broker.lease_next("w2").spec == spec


class TestLeaseContract:
    def test_lease_round_trips_the_spec(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        assert lease.key == spec.key
        assert lease.spec == spec
        assert pickle.dumps(lease.spec) == pickle.dumps(spec)
        assert broker.lease_next("w2") is None  # exclusive

    def test_racing_claims_have_exactly_one_winner(self, make_broker):
        broker = make_broker()
        broker.enqueue(_spec())
        barrier = threading.Barrier(8)

        def claim():
            barrier.wait()
            return broker.lease_next()

        with ThreadPoolExecutor(max_workers=8) as pool:
            wins = [lease for lease in pool.map(lambda _: claim(), range(8)) if lease]
        assert len(wins) == 1

    def test_concurrent_drain_is_exactly_once(self, make_broker):
        specs = [_spec(seed=seed, dataset=ds) for seed in range(25)
                 for ds in ("youtube", "imdb")]
        submit = make_broker()
        submit.enqueue_batch(specs)
        claimed: list[list[str]] = [[] for _ in range(4)]
        barrier = threading.Barrier(4)

        def drain(i):
            # Per-thread broker instance, as real workers would have.
            broker = make_broker()
            barrier.wait()
            while True:
                batch = broker.lease_batch(f"w{i}", limit=4)
                if not batch:
                    return
                claimed[i] += [lease.key for lease in batch]

        threads = [threading.Thread(target=drain, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        keys = sorted(key for per_worker in claimed for key in per_worker)
        assert keys == sorted(spec.key for spec in specs)

    def test_batch_respects_limit_and_prefers_one_shard(self, make_broker):
        broker = make_broker()
        specs = [_spec(seed=seed, dataset=ds) for seed in range(8)
                 for ds in ("youtube", "imdb")]
        broker.enqueue_batch(specs)
        batch = broker.lease_batch("w1", limit=5)
        assert len(batch) == 5
        # Dataset affinity: a batch no larger than a shard stays within it
        # (8 trials per dataset here), so the worker's warm corpus is reused.
        datasets = {lease.spec.dataset for lease in batch}
        assert len(datasets) == 1

    def test_batch_tops_up_across_shards_when_needed(self, make_broker):
        broker = make_broker()
        specs = [_spec(seed=seed, dataset=ds) for seed in range(3)
                 for ds in ("youtube", "imdb")]
        broker.enqueue_batch(specs)
        batch = broker.lease_batch("w1", limit=6)
        assert len(batch) == 6  # 3 per shard: the batch crossed shards

    def test_consecutive_batches_keep_dataset_affinity(self, make_broker):
        broker = make_broker()
        specs = [_spec(seed=seed, dataset=ds) for seed in range(6)
                 for ds in ("youtube", "imdb")]
        broker.enqueue_batch(specs)
        first = broker.lease_batch("w1", limit=3)
        second = broker.lease_batch("w1", limit=3)
        datasets = {lease.spec.dataset for lease in first + second}
        assert len(first) == len(second) == 3 and len(datasets) == 1

    def test_claims_are_not_in_key_order(self, make_broker):
        # Racing workers spread out only because each scans candidates in
        # its own random order; a sorted scan would send every worker to the
        # same smallest key.  Twelve one-at-a-time claims come out in key
        # order by chance with probability 1/12! (about 2e-9).
        broker = make_broker()
        specs = [_spec(seed=seed) for seed in range(12)]
        broker.enqueue_batch(specs)
        order = [broker.lease_next("w1").key for _ in specs]
        assert sorted(order) == sorted(spec.key for spec in specs)
        assert order != sorted(order)

    def test_release_re_offers_for_any_claimant(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        broker.release(lease)
        counts = broker.counts()
        assert counts["tasks"] == 1 and counts["leases"] == 0
        again = broker.lease_next("w2")
        assert again.key == spec.key

    def test_release_never_migrates_a_trial_between_shards(self, make_broker):
        broker = make_broker()
        youtube, imdb = _spec(dataset="youtube"), _spec(dataset="imdb")
        broker.enqueue_batch([youtube, imdb])
        for lease in _claim_all(broker, "w1"):
            broker.release(lease)
        assert broker.backlog() == {"tasks": 2, "shards": 2, "leases": 0}
        # Re-claimed, each trial is still filed under its own shard: a
        # youtube-scoped sweep re-offers the youtube claim only.
        for lease in _claim_all(broker, "w2"):
            _backdate_lease(lease)
        assert broker.release_expired(shards=["youtube"]) == 1
        assert [lease.key for lease in _claim_all(broker, "w3")] == [youtube.key]

    def test_complete_removes_the_trial(self, make_broker):
        broker = make_broker()
        broker.enqueue(_spec())
        lease = broker.lease_next("w1")
        broker.complete(lease)
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}
        assert broker.lease_next("w2") is None

    def test_heartbeat_after_complete_does_not_resurrect_the_claim(self, make_broker):
        broker = make_broker()
        broker.enqueue(_spec())
        lease = broker.lease_next("w1")
        broker.complete(lease)
        broker.heartbeat(lease)
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}
        assert broker.release_expired() == 0


class TestExpiryContract:
    def test_expired_claims_are_re_offered(self, make_broker):
        broker = make_broker()
        broker.enqueue(_spec())
        lease = broker.lease_next("w1")
        assert broker.release_expired() == 0  # fresh heartbeat: kept
        _backdate_lease(lease)
        assert broker.release_expired() == 1
        counts = broker.counts()
        assert counts["tasks"] == 1 and counts["leases"] == 0

    def test_a_claim_on_a_long_pending_trial_starts_fresh(self, make_broker):
        broker = make_broker(lease_ttl=1.0)
        spec = _spec()
        broker.enqueue(spec)
        task = broker.task_path(spec)
        stamp = task.stat().st_mtime - 3600.0
        os.utime(task, (stamp, stamp))  # waited far longer than the TTL
        broker.lease_next("w1")
        assert broker.release_expired() == 0
        assert broker.is_claimed(spec)

    def test_heartbeat_keeps_a_claim_alive(self, make_broker):
        broker = make_broker(lease_ttl=0.4)
        broker.enqueue(_spec())
        lease = broker.lease_next("w1")
        time.sleep(0.5)
        broker.heartbeat(lease)
        assert broker.release_expired() == 0

    def test_expiry_sweep_respects_key_scope(self, make_broker):
        broker = make_broker()
        mine, theirs = _spec(seed=0), _spec(seed=1)
        broker.enqueue_batch([mine, theirs])
        leases = {lease.key: lease for lease in broker.lease_batch("w1", limit=2)}
        for lease in leases.values():
            _backdate_lease(lease)
        assert broker.release_expired(keys=[mine.key]) == 1
        counts = broker.counts()
        assert counts["tasks"] == 1 and counts["leases"] == 1

    def test_expiry_sweep_respects_shard_scope(self, make_broker):
        broker = make_broker()
        youtube, imdb = _spec(dataset="youtube"), _spec(dataset="imdb")
        broker.enqueue_batch([youtube, imdb])
        leases = broker.lease_batch("w1", limit=2)
        for lease in leases:
            _backdate_lease(lease)
        assert broker.release_expired(shards=["youtube"]) == 1
        # The imdb claim was out of scope: still leased, still expired.
        assert broker.counts()["leases"] == 1
        assert broker.release_expired() == 1

    def test_empty_scopes_sweep_nothing(self, make_broker):
        # ``None`` means "no restriction"; an empty scope means "none of them".
        broker = make_broker()
        broker.enqueue(_spec())
        _backdate_lease(broker.lease_next("w1"))
        assert broker.release_expired(keys=[]) == 0
        assert broker.release_expired(shards=[]) == 0
        assert broker.counts()["leases"] == 1
        assert broker.release_expired() == 1

    def test_revoked_claim_cannot_complete_or_release(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        stale = broker.lease_next("w1")
        _backdate_lease(stale)
        broker.release_expired()
        fresh = broker.lease_next("w2")
        assert fresh.key == spec.key
        # The revoked holder's complete/release must not touch w2's claim.
        broker.complete(stale)
        broker.release(stale)
        counts = broker.counts()
        assert counts["leases"] == 1 and counts["tasks"] == 0
        broker.complete(fresh)
        assert broker.counts()["leases"] == 0

    def test_revoked_claim_heartbeat_does_not_keep_the_new_claim_alive(self, make_broker):
        broker = make_broker()
        broker.enqueue(_spec())
        stale = broker.lease_next("w1")
        _backdate_lease(stale)
        broker.release_expired()
        fresh = broker.lease_next("w2")
        _backdate_lease(fresh)
        broker.heartbeat(stale)
        # w2's claim is abandoned too; w1's heartbeat must not vouch for it.
        assert broker.release_expired() == 1
        assert broker.counts()["tasks"] == 1


class TestFailureContract:
    def test_fail_records_a_log_the_submitter_raises(self, make_broker, tmp_path):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        broker.fail(lease, "w1", RuntimeError("boom"), "traceback-text")
        failure = broker.failure_for(spec.key)
        assert failure["worker"] == "w1"
        assert "boom" in failure["error"]
        assert failure["traceback"] == "traceback-text"
        assert broker.counts()["failed"] == 1
        with pytest.raises(RemoteTrialError, match="boom"):
            broker.wait([spec], ResultCache(tmp_path / "cache"), timeout=5)

    def test_revoked_claim_records_no_failure(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        stale = broker.lease_next("w1")
        _backdate_lease(stale)
        broker.release_expired()
        broker.lease_next("w2")
        broker.fail(stale, "w1", RuntimeError("stale holder"), "tb")
        assert broker.failure_for(spec.key) is None
        assert broker.counts()["failed"] == 0

    def test_fail_drops_the_claim_without_re_offering(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        broker.fail(broker.lease_next("w1"), "w1", RuntimeError("boom"), "tb")
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 1, "corrupt": 0}
        assert broker.lease_next("w2") is None
        assert broker.release_expired() == 0

    def test_enqueue_clears_failure_log_only_when_it_writes(self, make_broker):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("w1")
        # A second submitter re-enqueues while the trial is leased and then
        # failing: the no-op enqueue must not wipe the evidence.
        assert broker.enqueue(spec) is False
        broker.fail(lease, "w1", RuntimeError("boom"), "tb")
        assert broker.enqueue_batch([]) == 0
        assert broker.failure_for(spec.key) is not None
        # Once nothing is pending/leased, enqueue IS the retry path.
        assert broker.enqueue(spec) is True
        assert broker.failure_for(spec.key) is None


class TestWaitContract:
    def test_wait_returns_histories_written_by_workers(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(seed=seed) for seed in range(3)]
        broker.enqueue_batch(specs)

        def worker():
            mine = make_broker()
            while True:
                lease = mine.lease_next("bg")
                if lease is None:
                    return
                cache.put(lease.key, _history(lease.spec))
                mine.complete(lease)

        thread = threading.Thread(target=worker)
        thread.start()
        histories = broker.wait(specs, cache, timeout=30)
        thread.join(timeout=10)
        assert set(histories) == {spec.key for spec in specs}
        assert histories[specs[1].key].seed == 1

    def test_wait_times_out_without_live_workers(self, make_broker, tmp_path):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        with pytest.raises(SpoolTimeout, match="workers running"):
            broker.wait([spec], ResultCache(tmp_path / "cache"), timeout=0.3)

    def test_wait_re_offers_expired_claims_of_its_trials(self, make_broker, tmp_path):
        broker = make_broker()
        spec = _spec()
        broker.enqueue(spec)
        lease = broker.lease_next("crashed-worker")
        _backdate_lease(lease)
        released: list[int] = []
        with pytest.raises(SpoolTimeout):
            broker.wait(
                [spec],
                ResultCache(tmp_path / "cache"),
                timeout=0.3,
                on_released=released.append,
            )
        assert sum(released) == 1
        assert broker.counts()["tasks"] == 1  # re-offered, not lost

    def test_wait_self_heals_vanished_trials(self, make_broker, tmp_path):
        broker = make_broker()
        spec = _spec()
        # Never enqueued at all — wait() must restore it from the spec it
        # holds before giving up.
        with pytest.raises(SpoolTimeout):
            broker.wait([spec], ResultCache(tmp_path / "cache"), timeout=0.3)
        assert broker.counts()["tasks"] == 1

    def test_wait_serves_results_already_in_cache(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(spec.key, _history(spec))
        histories = broker.wait([spec], cache, timeout=5)
        assert histories[spec.key].seed == spec.seed

    def test_wait_reports_each_result_once(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(seed=seed) for seed in range(3)]
        for spec in specs:
            cache.put(spec.key, _history(spec))
        seen: list[str] = []
        histories = broker.wait(
            specs, cache, timeout=5, on_result=lambda spec, history: seen.append(spec.key)
        )
        assert sorted(seen) == sorted(histories) == sorted(spec.key for spec in specs)
        assert broker.wait([], cache, timeout=0) == {}

    def test_wait_outlasts_its_timeout_while_a_claim_heartbeats(self, make_broker, tmp_path):
        # The timeout detects abandonment, not trials that run long: a
        # heartbeating claim keeps pushing the deadline out.
        broker = make_broker(lease_ttl=1.0)
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        broker.enqueue(spec)
        worker = make_broker(lease_ttl=1.0)
        lease = worker.lease_next("slow")

        def run_long():
            # Longer than the TTL and four times the wait timeout.
            for _ in range(12):
                time.sleep(0.1)
                worker.heartbeat(lease)
            cache.put(lease.key, _history(lease.spec))
            worker.complete(lease)

        thread = threading.Thread(target=run_long)
        thread.start()
        histories = broker.wait([spec], cache, timeout=0.3)
        thread.join(timeout=10)
        assert histories[spec.key].seed == spec.seed

    def test_wait_re_offers_a_trial_whose_cached_result_is_corrupt(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        blob = cache.path_for(spec.key)
        blob.parent.mkdir(parents=True, exist_ok=True)
        blob.write_bytes(b"not a pickle")
        with pytest.raises(SpoolTimeout):
            broker.wait([spec], cache, timeout=0.3)
        assert not blob.exists()  # quarantined by the read
        assert broker.counts()["tasks"] == 1  # and the trial re-offered


class TestPollContract:
    def test_poll_returns_landed_results_as_done(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(spec.key, _history(spec))
        round_ = broker.poll({spec.key: spec}, cache)
        assert list(round_.done) == [spec.key]
        assert round_.done[spec.key].seed == spec.seed
        assert (round_.failed, round_.released, round_.requeued) == ({}, 0, 0)
        assert broker.counts()["tasks"] == 0

    def test_poll_re_offers_a_vanished_trial_once(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        pending = {spec.key: spec}
        first = broker.poll(pending, cache)
        assert (first.done, first.failed, first.released, first.requeued) == ({}, {}, 0, 1)
        assert broker.poll(pending, cache).requeued == 0  # now pending again
        assert broker.counts()["tasks"] == 1

    def test_poll_reports_a_failure_without_re_offering_it(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        bad, fine = _spec(seed=0), _spec(seed=1)
        broker.enqueue(bad)
        lease = broker.lease_next("w1")
        broker.fail(lease, "w1", RuntimeError("boom"), "tb")
        round_ = broker.poll({bad.key: bad, fine.key: fine}, cache)
        assert list(round_.failed) == [bad.key]
        assert "boom" in round_.failed[bad.key]["error"]
        assert round_.failed[bad.key]["worker"] == "w1"
        assert round_.requeued == 1  # only the never-enqueued trial
        assert not broker.task_path(bad).exists()
        assert broker.failure_for(bad.key) is not None  # evidence kept

    def test_poll_quarantines_and_re_offers_a_garbage_result(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        blob = cache.path_for(spec.key)
        blob.parent.mkdir(parents=True, exist_ok=True)
        blob.write_bytes(b"not a pickle")
        round_ = broker.poll({spec.key: spec}, cache)
        assert round_.done == {}
        assert round_.requeued == 1
        assert not blob.exists() and cache.n_quarantined() == 1
        assert broker.counts()["tasks"] == 1

    def test_poll_releases_expired_claims_of_pending_keys_only(self, make_broker, tmp_path):
        broker = make_broker()
        cache = ResultCache(tmp_path / "cache")
        mine, other = _spec(seed=0), _spec(seed=1)
        broker.enqueue_batch([mine, other])
        for lease in _claim_all(broker, "crashed-worker"):
            _backdate_lease(lease)
        round_ = broker.poll({mine.key: mine}, cache)
        assert (round_.released, round_.requeued) == (1, 0)
        assert broker.task_path(mine).exists()
        assert broker.is_claimed(other) and not broker.is_claimed(mine)


class TestIntrospectionContract:
    def test_counts_shape_is_stable(self, make_broker):
        broker = make_broker()
        assert broker.counts() == {"tasks": 0, "leases": 0, "failed": 0, "corrupt": 0}

    def test_backlog_reports_depth_and_shards(self, make_broker):
        broker = make_broker()
        assert broker.backlog()["tasks"] == 0
        specs = [_spec(seed=seed, dataset=ds) for seed in range(3)
                 for ds in ("youtube", "imdb")]
        broker.enqueue_batch(specs)
        backlog = broker.backlog()
        assert backlog["tasks"] == 6
        assert backlog["shards"] == 2
        assert backlog["leases"] == 0
        broker.lease_batch("w1", limit=3)
        backlog = broker.backlog()
        assert backlog["tasks"] == 3 and backlog["leases"] == 3

    def test_stats_count_claims_and_batches(self, make_broker):
        broker = make_broker()
        broker.enqueue_batch([_spec(seed=seed) for seed in range(4)])
        broker.lease_batch("w1", limit=4)
        assert broker.stats.claims == 4
        assert broker.stats.batches == 1

    def test_stats_are_per_instance(self, make_broker):
        busy, idle = make_broker(), make_broker()
        busy.enqueue_batch([_spec(seed=seed) for seed in range(2)])
        busy.lease_batch("w1", limit=2)
        assert busy.stats.claims == 2
        assert idle.stats.claims == 0 and idle.stats.batches == 0
