"""Session round-trips over HTTP: stream, evict mid-stream, resume.

Pins the suspend-resume contract at the service boundary: a session that
is LRU-evicted to disk mid-stream and transparently resumed produces final
labels and diagnostics identical to an uninterrupted run of the same LF
sequence, and that its suspended payload holds no dataset.
"""

from __future__ import annotations

from repro.baselines.lfset import LFSetPipeline
from repro.datasets import load_dataset
from repro.serving.schemas import canonical_json
from repro.serving.sessions import LabelingSession

LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "subscribe", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
    {"type": "keyword", "keyword": "love", "label": 0},
]
ARTIFACT_KEYS = ("labels", "lf_diagnostics", "end_model")


def _without_session_id(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "session"}


def _control_payload(seed: int) -> dict:
    """The uninterrupted ground truth, computed without HTTP."""
    session = LabelingSession("control", "youtube", seed=seed, scale=0.15)
    for lf in LFS:
        session.add_lf(lf)
    return _without_session_id(session.label_payload())


def test_lru_eviction_mid_stream_preserves_labels(harness_factory):
    harness = harness_factory(max_sessions=1)
    client = harness.client

    _, info, _ = client.post("/sessions", {"dataset": "youtube", "seed": 7, "scale": 0.15})
    first = info["session_id"]
    for lf in LFS[:2]:
        status, step, _ = client.post(f"/sessions/{first}/lfs", lf)
        assert status == 200
        assert step["duplicate"] is False

    # A second session trips max_sessions=1: the first is LRU-evicted to
    # disk mid-stream.
    _, info, _ = client.post("/sessions", {"dataset": "youtube", "seed": 8, "scale": 0.15})
    second = info["session_id"]
    _, stats, _ = client.get("/stats")
    assert stats["sessions"]["evictions"] >= 1
    listing = {row["session"]: row["live"] for row in client.get("/sessions")[1]["sessions"]}
    assert listing[first] is False

    # Streaming into the evicted session transparently resumes it.
    for lf in LFS[2:]:
        status, step, _ = client.post(f"/sessions/{first}/lfs", lf)
        assert status == 200
    _, stats, _ = client.get("/stats")
    assert stats["sessions"]["resumes"] >= 1

    status, resumed, _ = client.get(f"/sessions/{first}/labels")
    assert status == 200
    assert resumed["n_lfs"] == len(LFS)
    assert canonical_json(_without_session_id(resumed)) == canonical_json(
        _control_payload(seed=7)
    )

    # The untouched second session is unaffected by the churn.
    status, other, _ = client.get(f"/sessions/{second}/labels")
    assert status == 200
    assert other["n_lfs"] == 0


def test_explicit_evict_roundtrip_and_duplicates(harness_factory):
    harness = harness_factory()
    client = harness.client
    _, info, _ = client.post("/sessions", {"dataset": "youtube", "seed": 7, "scale": 0.15})
    sid = info["session_id"]

    for lf in LFS[:2]:
        client.post(f"/sessions/{sid}/lfs", lf)
    status, payload, _ = client.post(f"/sessions/{sid}/evict")
    assert (status, payload["evicted"]) == (200, True)
    # Evicting a suspended session is an idempotent no-op.
    assert client.post(f"/sessions/{sid}/evict")[1]["evicted"] is False

    # A duplicate LF after resume is reported, not re-added.
    status, step, _ = client.post(f"/sessions/{sid}/lfs", LFS[0])
    assert status == 200
    assert step["duplicate"] is True
    assert step["n_lfs"] == 2

    for lf in LFS[2:]:
        client.post(f"/sessions/{sid}/lfs", lf)
    _, resumed, _ = client.get(f"/sessions/{sid}/labels")
    assert canonical_json(_without_session_id(resumed)) == canonical_json(
        _control_payload(seed=7)
    )


def test_session_errors_and_lifecycle(harness_factory):
    harness = harness_factory()
    client = harness.client

    assert client.post("/sessions", {})[0] == 400
    assert client.post("/sessions", {"dataset": "youtube", "bogus": 1})[0] == 400
    assert client.post("/sessions", {"dataset": "no-such-dataset"})[0] == 400
    assert client.get("/sessions/nope/labels")[0] == 404
    assert client.post("/sessions/nope/lfs", LFS[0])[0] == 404
    assert client.delete("/sessions/nope")[0] == 404

    _, info, _ = client.post("/sessions", {"dataset": "youtube", "scale": 0.15})
    sid = info["session_id"]
    assert client.post(f"/sessions/{sid}/lfs", {"type": "?"})[0] == 400

    # A busy session answers 429 with a Retry-After hint instead of queueing.
    with harness.service.sessions.acquire(sid):
        status, payload, headers = client.post(f"/sessions/{sid}/lfs", LFS[0])
        assert status == 429
        assert "Retry-After" in headers
        assert payload["retry_after"] > 0
        assert client.delete(f"/sessions/{sid}")[0] == 429

    assert client.delete(f"/sessions/{sid}")[0] == 200
    assert client.get(f"/sessions/{sid}/labels")[0] == 404


def test_suspension_stores_no_dataset_and_resume_rebinds_the_split():
    session = LabelingSession("suspend", "youtube", seed=7, scale=1.0)
    for lf in LFS[:2]:
        session.add_lf(lf)
    payload = session.suspended_payload()
    feature_bytes = session.split.train.features.nbytes + session.split.valid.features.nbytes

    assert len(payload) < 0.1 * feature_bytes

    resumed = LabelingSession.resume(payload)
    state = resumed.framework.state
    assert state.train_matrix.dataset is resumed.split.train
    assert state.valid_matrix.dataset is resumed.split.valid
    assert not resumed.split.train.features.flags.writeable

    for lf in LFS[2:]:
        resumed.add_lf(lf)
    replay = LFSetPipeline(
        load_dataset("youtube", scale=1.0, random_state=7), random_state=7, lfs=LFS
    )
    replay.run(len(LFS))
    labels = resumed.label_payload()
    assert canonical_json({key: labels[key] for key in ARTIFACT_KEYS}) == canonical_json(
        replay.export_artifacts()
    )
