"""End-to-end HTTP lifecycle: cold submit → worker → poll, warm repeat.

The acceptance contract of the serving layer, pinned over a real socket:

* a cold request is enqueued exactly once, executed by a real worker loop,
  and the polled response is byte-identical to a direct engine run of the
  same spec;
* an immediate repeat is served warm from the result store with zero new
  broker enqueues, whatever the case of its dataset name;
* a poll by raw key on a service that never saw the request answers with
  the same bytes as the warm path;
* an indexed key whose blob is gone is an ordinary cold request;
* a blob that is unreadable when the watcher sees it, and a corrupt
  run-history index, each still end in a byte-identical 200.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.runner import run_trial
from repro.serving.schemas import canonical_json, label_payload, parse_label_request

LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "subscribe", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
]


def _body(seed=0):
    return {"dataset": "youtube", "lfs": LFS, "scale": 0.15, "seed": seed}


def test_cold_then_warm_lifecycle(harness_factory):
    harness = harness_factory()
    client = harness.client

    status, payload, _ = client.post("/label", _body())
    assert status == 202
    assert payload["status"] == "pending"
    key = payload["key"]

    # Exactly one enqueue; a coalesced duplicate adds nothing to the queue.
    status, dup, _ = client.post("/label", _body())
    assert status == 202
    assert dup["coalesced"] is True
    _, stats, _ = client.get("/stats")
    assert stats["requests"]["enqueued"] == 1
    assert stats["requests"]["coalesced"] == 1

    harness.start_worker(max_trials=1)
    status, done, _ = harness.poll_until_done(key)
    assert status == 200
    assert done["status"] == "done"
    harness.join_workers()

    # Byte-identity with a direct engine run of the canonicalised spec.
    spec = parse_label_request(_body())
    assert spec.key == key
    expected = canonical_json(label_payload(spec, run_trial(spec)))
    assert client.raw("GET", f"/label/{key}") == expected

    # Warm repeat: full payload immediately, no new enqueue, no admission.
    status, warm, _ = client.post("/label", _body())
    assert status == 200
    assert warm == done
    _, stats, _ = client.get("/stats")
    assert stats["requests"]["enqueued"] == 1
    assert stats["requests"]["warm_hits"] == 1
    assert stats["admission"]["inflight"] == 0
    assert stats["jobs"] == {"pending": 0, "done": 1, "failed": 0}


def _expected_bytes(body) -> bytes:
    """The served bytes of a direct engine run of *body*'s spec."""
    spec = parse_label_request(body)
    return canonical_json(label_payload(spec, run_trial(spec)))


def test_mixed_case_dataset_is_one_trial_and_raw_key_polls_match(harness_factory):
    harness = harness_factory()
    mixed = {**_body(), "dataset": "YouTube"}
    status, payload, _ = harness.client.post("/label", mixed)
    assert status == 202
    key = payload["key"]
    assert key == parse_label_request(_body()).key
    harness.start_worker(max_trials=1)
    harness.poll_until_done(key)
    harness.join_workers()

    # The lower-case spelling is the same trial: a warm hit, no enqueue.
    status, _, _ = harness.client.post("/label", _body())
    assert status == 200
    _, stats, _ = harness.client.get("/stats")
    assert stats["requests"]["enqueued"] == 1

    # A service that never saw the request answers a raw-key poll from the
    # store, with the bytes of the warm path and of a direct run.
    fresh = harness_factory()
    fresh.service.store = harness.service.store
    expected = _expected_bytes(mixed)
    assert fresh.client.raw("GET", f"/label/{key}") == expected
    assert harness.client.raw("GET", f"/label/{key}") == expected


def test_indexed_key_whose_blob_is_gone_is_reoffered(harness_factory):
    harness = harness_factory()
    status, payload, _ = harness.client.post("/label", _body())
    key = payload["key"]
    harness.start_worker(max_trials=1)
    harness.poll_until_done(key)
    harness.join_workers()
    spec = parse_label_request(_body())
    harness.service.store.path_for(spec).unlink()
    assert harness.service.store.db.has_key(key)

    fresh = harness_factory()
    fresh.service.store = harness.service.store
    fresh.service.broker = harness.service.broker
    # The store writes a blob before its index row, so an index row with no
    # blob is a lost result: the request is cold and enqueued at once.
    status, payload, _ = fresh.client.post("/label", _body())
    assert (status, payload) == (202, {"key": key, "status": "pending"})
    _, stats, _ = fresh.client.get("/stats")
    assert stats["requests"]["enqueued"] == 1

    harness.start_worker(max_trials=1)
    status, _, _ = fresh.poll_until_done(key, timeout=10.0)
    assert status == 200
    assert fresh.client.raw("GET", f"/label/{key}") == _expected_bytes(_body())


def test_result_unreadable_when_watched_is_reoffered(harness_factory):
    harness = harness_factory()
    status, payload, _ = harness.client.post("/label", _body())
    assert status == 202
    key = payload["key"]

    # A worker that claims the task, publishes garbage and completes the
    # claim: the blob is listed, but it cannot be read.
    broker, store = harness.service.broker, harness.service.store
    lease = broker.lease_next("garbage-writer")
    assert lease.key == key
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"garbage")
    broker.complete(lease)

    # No GET before a watcher tick has seen the blob: the tick must read
    # it, quarantine it and keep the job pending rather than call it done.
    waited, tick = 0.0, threading.Event()
    while store.n_quarantined() == 0 and harness.service.stats()[1]["jobs"]["done"] == 0:
        assert waited < 5.0, "the watcher never saw the blob"
        tick.wait(0.02)
        waited += 0.02
    harness.start_worker(max_trials=1)
    status, _, _ = harness.poll_until_done(key, timeout=10.0)
    assert status == 200
    assert harness.client.raw("GET", f"/label/{key}") == _expected_bytes(_body())
    assert store.n_quarantined() == 1


def test_corrupt_index_answers_as_not_indexed(harness_factory):
    harness = harness_factory()
    harness.cache_dir.mkdir(parents=True, exist_ok=True)
    (harness.cache_dir / "results.sqlite3").write_bytes(b"not a database" * 64)

    status, payload, _ = harness.client.post("/label", _body())
    assert status == 202
    assert "indexed" not in payload
    key = payload["key"]
    harness.start_worker(max_trials=1)
    status, _, _ = harness.poll_until_done(key, timeout=10.0)
    assert status == 200
    assert harness.service.store.path_for(key).exists()
    assert harness.client.raw("GET", f"/label/{key}") == _expected_bytes(_body())


def test_worker_failure_surfaces_as_500(harness_factory):
    harness = harness_factory()
    client = harness.client
    body = {"dataset": "no-such-dataset", "lfs": LFS}
    status, payload, _ = client.post("/label", body)
    assert status == 202
    # A failed trial never counts toward max_trials; idle out quickly.
    harness.start_worker(idle_timeout=1.0)
    status, payload, _ = harness.poll_until_done(payload["key"])
    assert status == 500
    assert payload["status"] == "failed"
    assert payload["error"]["error"]
    _, stats, _ = client.get("/stats")
    assert stats["jobs"]["failed"] == 1
    assert stats["admission"]["inflight"] == 0


def test_request_validation_and_unknown_routes(harness_factory):
    harness = harness_factory()
    client = harness.client
    assert client.post("/label", {"dataset": "youtube"})[0] == 400
    assert client.post("/label", {"dataset": "youtube", "lfs": []})[0] == 400
    assert client.post("/label", {**_body(), "bogus": 1})[0] == 400
    assert client.post("/label", {"dataset": "youtube", "lfs": [{"type": "?"}]})[0] == 400
    assert client.get("/label/deadbeef")[0] == 404
    assert client.get("/no/such/route")[0] == 404
    assert client.post("/label/extra/segments")[0] == 404

    status, payload, _ = client.get("/healthz")
    assert (status, payload) == (200, {"status": "ok"})


def test_overflowing_numbers_are_answered_400(harness_factory):
    """A JSON number that overflows to infinity gets a response, not a dropped
    connection, and enqueues nothing."""
    harness = harness_factory()
    lfs = json.dumps(LFS)
    connection = http.client.HTTPConnection(*harness._address, timeout=30)
    try:
        for path, body in [
            ("/label", f'{{"dataset": "youtube", "lfs": {lfs}, "seed": 1e309}}'),
            ("/label", f'{{"dataset": "youtube", "lfs": {lfs}, "eval_every": 1e309}}'),
            ("/label", f'{{"dataset": "youtube", "lfs": {lfs}, "scale": NaN}}'),
            ("/sessions", '{"dataset": "youtube", "seed": 1e309}'),
            ("/sessions", '{"dataset": "youtube", "scale": 1e309}'),
        ]:
            connection.request(
                "POST", path, body=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400, (path, body)
            assert "error" in json.loads(response.read())
    finally:
        connection.close()
    _, stats, _ = harness.client.get("/stats")
    assert stats["requests"]["enqueued"] == 0
