"""Service bookkeeping without HTTP: request validation, admission release,
and the watcher's swallowed-error counter.

These drive :class:`~repro.serving.LabelingService` directly (its request
methods return ``(status, payload, headers)``), with a watcher that never
ticks on its own unless a test asks for it, so every assertion is about one
known sequence of calls.
"""

from __future__ import annotations

import threading

import pytest

from repro.runner import run_trial
from repro.serving import LabelingService
from repro.serving.schemas import parse_label_request

LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
]
BODY = {"dataset": "youtube", "lfs": LFS, "scale": 0.15}

#: A watcher period no test outlives: the watcher thread never ticks.
NEVER = 3600.0


@pytest.fixture()
def make_service(tmp_path):
    built = []

    def factory(**kwargs):
        kwargs.setdefault("poll_interval", NEVER)
        service = LabelingService(
            tmp_path / f"spool{len(built)}", tmp_path / f"cache{len(built)}", **kwargs
        )
        built.append(service)
        return service

    yield factory
    for service in built:
        service.close()


def _counters(service):
    _, stats, _ = service.stats()
    return stats["requests"], stats["admission"], stats["broker"]


#: ActiveDPConfig fields deleted when the refit path lost its switches.
REMOVED_REFIT_FIELDS = {
    "warm_start_label_model": False,
    "warm_start_labelpick": False,
    "warm_start_al_model": False,
    "adaptive_early_stop": False,
    "retrain_every": 3,
}


class TestConfigOverrides:
    @pytest.mark.parametrize(
        "overrides",
        [{"backend": "numpy"}, {"glasso_alpah": 0.02}]
        + [{name: value} for name, value in REMOVED_REFIT_FIELDS.items()],
        ids=["removed-field", "misspelled-field"]
        + [f"removed-field-{name}" for name in REMOVED_REFIT_FIELDS],
    )
    def test_label_request_with_unknown_key_is_rejected_before_admission(
        self, make_service, overrides
    ):
        service = make_service()
        before = _counters(service)
        status, payload, _ = service.submit({**BODY, "config_overrides": overrides})
        assert status == 400
        assert sorted(overrides)[0] in payload["error"]
        assert _counters(service) == before

    @pytest.mark.parametrize(
        "overrides",
        [{"backend": "numpy"}]
        + [{name: value} for name, value in REMOVED_REFIT_FIELDS.items()],
        ids=["backend", *REMOVED_REFIT_FIELDS],
    )
    def test_session_with_unknown_key_is_rejected(self, make_service, overrides):
        service = make_service()
        status, payload, _ = service.create_session(
            {"dataset": "youtube", "scale": 0.15, "config_overrides": overrides}
        )
        assert status == 400
        assert sorted(overrides)[0] in payload["error"]
        assert service.list_sessions()[1]["sessions"] == []


INF = float("inf")  # what a JSON body's 1e309 parses to
NAN = float("nan")


class TestNonFiniteNumbers:
    """Numeric fields that overflow or are not finite answer 400 up front."""

    @pytest.mark.parametrize(
        "field",
        [{"seed": INF}, {"eval_every": INF}, {"scale": NAN}, {"scale": INF},
         {"end_model_C": 0}, {"end_model_C": NAN}],
        ids=["seed-inf", "eval_every-inf", "scale-nan", "scale-inf",
             "end_model_C-zero", "end_model_C-nan"],
    )
    def test_label_request_is_rejected_before_enqueue(self, make_service, field):
        service = make_service()
        before = _counters(service)
        status, payload, _ = service.submit({**BODY, **field})
        assert status == 400
        assert "error" in payload
        assert _counters(service) == before
        assert service.stats()[1]["requests"]["enqueued"] == 0

    @pytest.mark.parametrize(
        "field",
        [{"seed": INF}, {"scale": INF}, {"scale": NAN},
         {"end_model_C": NAN}, {"end_model_C": 0}],
        ids=["seed-inf", "scale-inf", "scale-nan", "end_model_C-nan",
             "end_model_C-zero"],
    )
    def test_session_is_rejected(self, make_service, field):
        service = make_service()
        status, payload, _ = service.create_session(
            {"dataset": "youtube", "scale": 0.15, **field}
        )
        assert status == 400
        assert "error" in payload
        assert service.list_sessions()[1]["sessions"] == []
        assert service.stats()[1]["requests"]["enqueued"] == 0


class TestAdmissionRelease:
    def test_status_of_a_landed_result_releases_capacity(self, make_service):
        service = make_service(max_inflight=1)
        status, payload, _ = service.submit(BODY)
        assert status == 202
        assert service.stats()[1]["admission"]["inflight"] == 1

        spec = parse_label_request(BODY)
        service.store.put(spec, run_trial(spec))
        status, _, _ = service.status(payload["key"])
        assert status == 200

        _, stats, _ = service.stats()
        assert stats["admission"]["inflight"] == 0
        assert stats["admission"]["completed"] == 1
        assert stats["jobs"] == {"pending": 0, "done": 1, "failed": 0}
        # The released slot is usable at once.
        status, _, _ = service.submit({**BODY, "seed": 1})
        assert status == 202


class TestRacingSubmits:
    def test_identical_cold_requests_take_one_admission_slot(self, make_service):
        """Two identical cold requests racing past the store probe: one job,
        one slot, and the slot comes back when the result lands."""
        service = make_service()
        barrier = threading.Barrier(2, timeout=5.0)
        real_enqueue = service.broker.enqueue

        def racing_enqueue(spec):
            # Holds the first enqueue until the second request also reaches
            # enqueue — which only happens if it was admitted too.
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return real_enqueue(spec)

        service.broker.enqueue = racing_enqueue
        responses = []

        def client():
            responses.append(service.submit(BODY))
            # A request answered without reaching enqueue frees the other.
            barrier.abort()

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [status for status, _, _ in responses] == [202, 202]
        coalesced = [payload.get("coalesced", False) for _, payload, _ in responses]
        assert sorted(coalesced) == [False, True]
        _, stats, _ = service.stats()
        assert stats["admission"]["inflight"] == 1

        spec = parse_label_request(BODY)
        service.store.put(spec, run_trial(spec))
        status, _, _ = service.status(spec.key)
        assert status == 200
        _, stats, _ = service.stats()
        assert stats["admission"]["inflight"] == 0
        assert stats["jobs"] == {"pending": 0, "done": 1, "failed": 0}

    def test_watcher_tick_before_the_first_enqueue_leaves_it_to_submit(self, make_service):
        """A watcher tick between a job's registration and its first enqueue
        does not self-heal the job: one enqueue, counted, and no requeue."""
        service = make_service()
        real_enqueue = service.broker.enqueue
        ticked = []

        def enqueue_after_a_tick(spec):
            if not ticked:
                ticked.append(True)
                service._watch_once()
            return real_enqueue(spec)

        service.broker.enqueue = enqueue_after_a_tick
        status, _, _ = service.submit(BODY)
        assert status == 202
        requests, _, broker = _counters(service)
        assert (requests["enqueued"], requests["requeues"]) == (1, 0)
        assert broker["tasks"] == 1

    def test_failed_enqueue_rolls_back_the_job_and_its_slot(self, make_service):
        service = make_service(max_inflight=1)

        def broken_enqueue(spec):
            raise OSError("spool is read-only")

        service.broker.enqueue = broken_enqueue
        with pytest.raises(OSError):
            service.submit(BODY)
        _, stats, _ = service.stats()
        assert stats["admission"]["inflight"] == 0
        assert stats["jobs"] == {"pending": 0, "done": 0, "failed": 0}
        assert service.status(parse_label_request(BODY).key)[0] == 404


class TestWatcherErrors:
    def test_swallowed_tick_error_is_counted_and_the_job_completes(self, make_service):
        service = make_service(poll_interval=0.01)
        real_keys_present = service.store.keys_present
        calls = []

        def flaky_keys_present(specs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("database is locked")
            return real_keys_present(specs)

        service.store.keys_present = flaky_keys_present
        status, payload, _ = service.submit(BODY)
        assert status == 202
        spec = parse_label_request(BODY)
        service.store.put(spec, run_trial(spec))

        wait = threading.Event()
        for _ in range(1000):
            _, stats, _ = service.stats()
            if stats["jobs"]["done"] == 1:
                break
            wait.wait(0.01)
        assert stats["jobs"] == {"pending": 0, "done": 1, "failed": 0}
        assert stats["requests"]["watch_errors"] == 1
        assert stats["admission"]["inflight"] == 0
