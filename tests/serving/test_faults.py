"""Fault injection on the cold path: a locked index and a dead worker.

Both faults sit under the watcher's one completion round
(:meth:`~repro.runner.brokers.SpoolBroker.poll`), and neither may cost the
client its byte-identical answer:

* another connection holds ``results.sqlite3`` under ``BEGIN EXCLUSIVE``
  for the whole request — the worker's index write fails softly, and the
  service completes the job from the blob without reading SQLite at all;
* a worker claims the trial and dies before publishing — its lease ages
  out, the watcher's round re-offers the trial, a second worker runs it,
  and exactly one blob lands.
"""

from __future__ import annotations

import sqlite3
import threading

from repro.runner import SpoolBroker, run_trial
from repro.runner import worker as worker_module
from repro.runner.results import IndexedResultStore
from repro.runner.results.history_db import RunHistoryDB
from repro.serving.schemas import canonical_json, label_payload, parse_label_request

BODY = {
    "dataset": "youtube",
    "scale": 0.15,
    "lfs": [
        {"type": "keyword", "keyword": "check", "label": 1},
        {"type": "keyword", "keyword": "song", "label": 0},
    ],
}


def _expected_bytes() -> bytes:
    spec = parse_label_request(BODY)
    return canonical_json(label_payload(spec, run_trial(spec)))


class _Tripwire:
    """Stands in for the service's index: records any use of it."""

    def __init__(self):
        self.touched: list[str] = []

    def __getattr__(self, name):
        self.touched.append(name)
        raise AssertionError(f"the service used the run-history index ({name})")


def test_cold_request_completes_while_the_index_is_locked(harness_factory, monkeypatch):
    harness = harness_factory()
    tripwire = _Tripwire()
    harness.service.store.db = tripwire

    ready = threading.Event()

    def impatient_store(root):
        # The worker's store, with its index opened before the lock is
        # taken and a locked write given up after 50 ms instead of 30 s.
        store = IndexedResultStore(root)
        store.db._read("PRAGMA busy_timeout=50")
        ready.set()
        return store

    monkeypatch.setattr(worker_module, "IndexedResultStore", impatient_store)
    harness.start_worker(max_trials=1)
    assert ready.wait(10.0)

    holder = sqlite3.connect(str(harness.cache_dir / "results.sqlite3"), isolation_level=None)
    holder.execute("BEGIN EXCLUSIVE")
    try:
        status, payload, _ = harness.client.post("/label", BODY)
        assert status == 202
        key = payload["key"]
        status, _, _ = harness.poll_until_done(key, timeout=30.0)
        assert status == 200
        assert harness.client.raw("GET", f"/label/{key}") == _expected_bytes()
        harness.join_workers()
    finally:
        holder.execute("ROLLBACK")
        holder.close()

    # The blob landed; the index row did not, and --reindex backfills it.
    assert harness.service.store.path_for(key).exists()
    index = RunHistoryDB(harness.cache_dir)
    assert not index.has_key(key)
    assert IndexedResultStore(harness.cache_dir).reindex() == 1
    assert index.has_key(key)
    index.close()

    assert tripwire.touched == []
    _, stats, _ = harness.client.get("/stats")
    assert stats["requests"]["watch_errors"] == 0
    assert stats["jobs"] == {"pending": 0, "done": 1, "failed": 0}


def test_dead_workers_claim_is_reoffered_and_completed_once(harness_factory):
    ttl = 1.0
    harness = harness_factory(lease_ttl=ttl)
    status, payload, _ = harness.client.post("/label", BODY)
    assert status == 202
    key = payload["key"]

    # A worker claims the trial and dies before publishing: no heartbeat,
    # no result, no failure log — only a lease that ages out.
    dead = SpoolBroker(harness.spool, lease_ttl=ttl).lease_next("dead-worker")
    assert dead.key == key

    harness.start_worker(max_trials=1, lease_ttl=ttl)
    status, _, _ = harness.poll_until_done(key, timeout=30.0)
    assert status == 200
    assert harness.client.raw("GET", f"/label/{key}") == _expected_bytes()
    harness.join_workers()

    assert not dead.lease_path.exists()
    assert len(harness.service.store) == 1
    assert harness.service.broker.counts() == {
        "tasks": 0, "leases": 0, "failed": 0, "corrupt": 0,
    }
