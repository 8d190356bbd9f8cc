"""The HTTP-independent service core: jobs, cache short-circuits, watcher.

:class:`LabelingService` is everything the serving layer does *except*
HTTP: it owns a :class:`~repro.runner.brokers.SpoolBroker` (cold requests become
content-keyed :class:`~repro.runner.spec.TrialSpec`\\ s enqueued to the
worker fleet), an :class:`~repro.runner.results.IndexedResultStore` (warm
requests short-circuit straight to the stored history), an
:class:`~repro.serving.admission.AdmissionController` (bounded in-flight)
and a :class:`~repro.serving.sessions.SessionManager` (interactive
sessions).  A background watcher thread runs one
:meth:`~repro.runner.brokers.SpoolBroker.poll` round over the pending jobs
per tick and maps it onto them: results that landed complete their jobs,
failure logs fail them, and the round itself polices expired worker leases
and re-enqueues lost tasks.

A poll of a pending job (``GET /label/<key>``) is held until its result
blob lands, the job fails, or one watcher tick passes, so a client learns
of a result within a few milliseconds of its publication rather than at
its own next poll.

Every public request method returns ``(http_status, payload, headers)`` so
the stdlib HTTP layer (:mod:`repro.serving.server`) is a thin translation
shim — and so the whole request surface is testable without a socket.

Dedup layers, cheapest first:

1. *coalescing* — a request whose key is already pending joins that job
   (no new enqueue, no admission charge);
2. *warm hit* — the result store already holds the key: answered
   immediately (HTTP 200), bypassing admission entirely;
3. *broker idempotency* — even an enqueued duplicate key is a no-op at
   the queue.

The run-history index is not a dedup layer: the store writes a blob
before its index row, so an index row without a blob means the blob is
gone, and such a request is cold.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.runner.brokers import DEFAULT_LEASE_TTL, SpoolBroker
from repro.runner.results import IndexedResultStore
from repro.runner.spec import TrialSpec
from repro.serving.admission import AdmissionController
from repro.serving.schemas import (
    RequestError,
    check_config_overrides,
    json_int,
    json_number,
    label_payload,
    parse_label_request,
)
from repro.serving.sessions import (
    SessionBusyError,
    SessionManager,
    UnknownSessionError,
)


#: How often a held ``GET /label/<key>`` stats its result blob, in seconds.
HOLD_PROBE_S = 0.002


class _Job:
    """One pending/terminal label job (service-internal).

    ``offered`` turns true once ``submit``'s own enqueue returned; until
    then the watcher leaves the job alone, so its self-heal cannot enqueue
    the trial first and ``submit`` counts every enqueue it makes.
    """

    __slots__ = ("spec", "status", "error", "offered")

    def __init__(self, spec: TrialSpec):
        self.spec = spec
        self.status = "pending"
        self.error: dict | None = None
        self.offered = False


class LabelingService:
    """Session-based labeling over the worker fleet, minus the HTTP.

    Parameters
    ----------
    spool_dir:
        Spool directory shared with the worker fleet.
    cache_dir:
        Result-store root shared with the worker fleet (blobs plus the
        ``results.sqlite3`` run-history index).
    lease_ttl:
        Worker lease TTL passed to the broker; the watcher re-offers
        leases older than this.
    max_inflight / retry_after:
        :class:`AdmissionController` knobs (the 429 + ``Retry-After``
        behaviour).
    max_sessions:
        Live-session cap before LRU eviction to disk.
    session_dir:
        Where suspended sessions are pickled; defaults to
        ``<cache_dir>/sessions``.
    poll_interval:
        Watcher tick period in seconds.
    """

    #: Shared state the lock-discipline checker holds to `with self._lock:`
    #: (the watcher thread and request threads race on all of these).
    _GUARDED_BY_LOCK = ("_jobs", "_counters", "_draining")

    def __init__(
        self,
        spool_dir: str | Path,
        cache_dir: str | Path,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_inflight: int = 8,
        retry_after: float = 1.0,
        max_sessions: int = 8,
        session_dir: str | Path | None = None,
        poll_interval: float = 0.2,
    ):
        self.broker = SpoolBroker(spool_dir, lease_ttl=lease_ttl)
        self.store = IndexedResultStore(cache_dir)
        self.admission = AdmissionController(
            max_inflight=max_inflight, retry_after=retry_after
        )
        if session_dir is None:
            session_dir = Path(cache_dir) / "sessions"
        self.sessions = SessionManager(session_dir, max_live=max_sessions)
        self.poll_interval = float(poll_interval)

        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._counters = {
            "submitted": 0,
            "warm_hits": 0,
            "coalesced": 0,
            "enqueued": 0,
            "requeues": 0,
            "completed": 0,
            "failed": 0,
            "watch_errors": 0,
        }
        self._draining = False
        self._stop = threading.Event()
        self._watcher = threading.Thread(
            target=self._watch_loop, name="serving-watcher", daemon=True
        )
        self._watcher.start()

    # -- label requests ----------------------------------------------------

    def submit(self, body: dict) -> tuple[int, dict, dict]:
        """Handle ``POST /label``: dedup, cache, admit, enqueue.

        Returns 200 with the full label payload on a warm hit, 202 with
        the job key while the fleet computes, 429 over the in-flight cap,
        400 on a malformed body and 503 while draining.
        """
        with self._lock:
            draining = self._draining
        if draining:
            return 503, {"error": "service is draining"}, {}
        try:
            spec = parse_label_request(body)
        except RequestError as error:
            return 400, {"error": str(error)}, {}
        key = spec.key

        with self._lock:
            self._counters["submitted"] += 1

        # The store probe comes before the coalesce check: once a result
        # has landed, a repeat must be a warm hit even if the watcher has
        # not ticked the pending job to done yet.
        history = self.store.get(spec)
        if history is not None:
            self._finish(key, "done")
            with self._lock:
                self._counters["warm_hits"] += 1
            return 200, label_payload(spec, history), {}

        # Coalesce check, admission and registration are one critical
        # section: two racing identical requests must not both take a slot.
        with self._lock:
            previous = self._jobs.get(key)
            if previous is not None and previous.status == "pending":
                self._counters["coalesced"] += 1
                return 202, {"key": key, "status": "pending", "coalesced": True}, {}
            if not self.admission.try_acquire():
                retry_after = self.admission.retry_after
                payload = {
                    "error": "label queue at capacity",
                    "retry_after": retry_after,
                }
                return 429, payload, {"Retry-After": f"{retry_after:g}"}
            job = self._jobs[key] = _Job(spec)

        try:
            written = self.broker.enqueue(spec)
        except BaseException:
            with self._lock:
                if self._jobs.get(key) is job and job.status == "pending":
                    if previous is None:
                        del self._jobs[key]
                    else:
                        self._jobs[key] = previous
                    self.admission.release()
            raise
        with self._lock:
            job.offered = True
            self._counters["enqueued"] += int(written)
        return 202, {"key": key, "status": "pending"}, {}

    def status(self, key: str) -> tuple[int, dict, dict]:
        """Handle ``GET /label/<key>``: poll one job (or probe the store).

        200 with the label payload when done, 202 while pending, 500 with
        the worker's failure log when failed, 404 for unknown keys.  A poll
        of a pending job is held until its result blob lands, the job
        fails, or one watcher tick (``poll_interval``) passes, and answers
        202 only after that; ``close()`` and ``drain()`` end a hold at once.
        Unknown keys and results that already landed never wait.
        """
        if self._job_state(key)[0] == "pending":
            self._hold(key)
        state, error = self._job_state(key)
        if state == "failed":
            return 500, {"key": key, "status": "failed", "error": error}, {}
        history = self.store.get(key)
        if history is None:
            if state is None:
                return 404, {"key": key, "error": "unknown label key"}, {}
            return 202, {"key": key, "status": "pending"}, {}
        self._finish(key, "done")
        return 200, label_payload(key, history), {}

    # -- sessions ----------------------------------------------------------

    def create_session(self, body: dict) -> tuple[int, dict, dict]:
        """Handle ``POST /sessions``: open an interactive session (201)."""
        with self._lock:
            draining = self._draining
        if draining:
            return 503, {"error": "service is draining"}, {}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        dataset = body.get("dataset")
        if not dataset or not isinstance(dataset, str):
            return 400, {"error": "'dataset' must be a non-empty dataset name"}, {}
        unknown = set(body) - {
            "dataset", "seed", "scale", "config_overrides", "end_model_C",
        }
        if unknown:
            return 400, {"error": f"unknown session field(s): {sorted(unknown)}"}, {}
        config_overrides = body.get("config_overrides")
        try:
            seed = json_int(body, "seed", 0)
            scale = json_number(body, "scale", 1.0)
            end_model_C = json_number(body, "end_model_C", 1.0)
            check_config_overrides(config_overrides)
        except RequestError as error:
            return 400, {"error": str(error)}, {}
        try:
            info = self.sessions.create(
                dataset,
                seed=seed,
                scale=scale,
                config_overrides=config_overrides,
                end_model_C=end_model_C,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            return 400, {"error": str(error)}, {}
        return 201, info, {}

    def session_add_lf(self, session_id: str, body: dict) -> tuple[int, dict, dict]:
        """Handle ``POST /sessions/<id>/lfs``: stream one LF in, refit."""
        return self._with_session(
            session_id, lambda session: session.add_lf(body)
        )

    def session_labels(self, session_id: str) -> tuple[int, dict, dict]:
        """Handle ``GET /sessions/<id>/labels``: the session's current product."""
        return self._with_session(session_id, lambda session: session.label_payload())

    def session_evict(self, session_id: str) -> tuple[int, dict, dict]:
        """Handle ``POST /sessions/<id>/evict``: force-suspend to disk."""
        return self._session_call(lambda: self.sessions.evict(session_id))

    def session_delete(self, session_id: str) -> tuple[int, dict, dict]:
        """Handle ``DELETE /sessions/<id>``: close and forget the session."""
        return self._session_call(lambda: self.sessions.delete(session_id))

    def list_sessions(self) -> tuple[int, dict, dict]:
        """Handle ``GET /sessions``: id/dataset/residency of every session."""
        return 200, {"sessions": self.sessions.list()}, {}

    # -- introspection and lifecycle ---------------------------------------

    def healthz(self) -> tuple[int, dict, dict]:
        """Handle ``GET /healthz``: liveness plus the draining flag."""
        with self._lock:
            draining = self._draining
        status = "draining" if draining else "ok"
        return (503 if draining else 200), {"status": status}, {}

    def stats(self) -> tuple[int, dict, dict]:
        """Handle ``GET /stats``: every counter the tests assert on."""
        with self._lock:
            counters = dict(self._counters)
            draining = self._draining
            jobs = {"pending": 0, "done": 0, "failed": 0}
            for job in self._jobs.values():
                jobs[job.status] += 1
            # Taken under the service lock, which `_finish` holds while it
            # releases capacity: a job and its admission slot read as one.
            admission = self.admission.snapshot()
        payload = {
            "requests": counters,
            "jobs": jobs,
            "admission": admission,
            "sessions": self.sessions.stats(),
            "broker": self.broker.counts(),
            "results_stored": len(self.store),
            "draining": draining,
        }
        return 200, payload, {}

    def drain(self, grace: float = 30.0) -> dict:
        """Graceful shutdown: refuse new work, let pending jobs finish.

        Stops admitting (`submit`/`create_session` answer 503), waits up to
        *grace* seconds for pending jobs to reach a terminal state, stops
        the watcher and suspends every live session to disk — so a restart
        resumes sessions instead of losing them.  Idempotent.
        """
        with self._lock:
            self._draining = True
        deadline = threading.Event()
        waited = 0.0
        while waited < grace:
            self._watch_once()
            with self._lock:
                if not any(job.status == "pending" for job in self._jobs.values()):
                    break
            deadline.wait(self.poll_interval)
            waited += self.poll_interval
        self._stop.set()
        self._watcher.join(timeout=5.0)
        suspended = self.sessions.suspend_all()
        with self._lock:
            pending = sum(1 for job in self._jobs.values() if job.status == "pending")
        return {"drained": pending == 0, "pending": pending, "suspended": suspended}

    def close(self) -> None:
        """Stop the watcher without draining (test teardown)."""
        with self._lock:
            self._draining = True
        self._stop.set()
        self._watcher.join(timeout=5.0)

    # -- internals ---------------------------------------------------------

    def _with_session(self, session_id: str, fn) -> tuple[int, dict, dict]:
        """Run *fn* with the exclusively-acquired session, mapped to HTTP."""

        def call():
            with self.sessions.acquire(session_id) as session:
                return fn(session)

        return self._session_call(call)

    def _session_call(self, call) -> tuple[int, dict, dict]:
        """Map session-layer exceptions to their HTTP renderings."""
        try:
            return 200, call(), {}
        except UnknownSessionError as error:
            return 404, {"error": f"unknown session: {error.args[0]}"}, {}
        except SessionBusyError as error:
            retry_after = self.admission.retry_after
            payload = {
                "error": f"session busy: {error.args[0]}",
                "retry_after": retry_after,
            }
            return 429, payload, {"Retry-After": f"{retry_after:g}"}
        except RequestError as error:
            return 400, {"error": str(error)}, {}
        except (TypeError, ValueError) as error:
            return 400, {"error": str(error)}, {}

    def _job_state(self, key: str) -> tuple[str | None, dict | None]:
        """``(status, error)`` of *key*'s job, or ``(None, None)`` if unknown."""
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                return None, None
            return job.status, job.error

    def _hold(self, key: str) -> None:
        """Wait until *key*'s blob exists, its job leaves pending, one
        watcher tick passes or the service stops.

        One ``stat`` of the blob path per :data:`HOLD_PROBE_S`; the blob is
        read afterwards, once, by the caller.
        """
        path = self.store.path_for(key)
        deadline = time.monotonic() + self.poll_interval
        while not path.exists():
            if self._job_state(key)[0] != "pending" or time.monotonic() >= deadline:
                return
            if self._stop.wait(HOLD_PROBE_S):
                return

    def _watch_loop(self) -> None:
        """Watcher thread body: tick until stopped."""
        while not self._stop.wait(self.poll_interval):
            try:
                self._watch_once()
            except Exception:  # noqa: BLE001 - the watcher must survive ticks
                # A transient store error (e.g. a locked index file)
                # must not kill job completion; the next tick retries.
                # Counted, so `/stats` shows what the watcher swallowed.
                with self._lock:
                    self._counters["watch_errors"] += 1

    def _watch_once(self) -> None:
        """One watcher tick: one broker poll round, mapped onto the jobs."""
        with self._lock:
            pending = {
                key: job.spec
                for key, job in self._jobs.items()
                if job.status == "pending" and job.offered
            }
        if not pending:
            return
        round_ = self.broker.poll(pending, self.store)
        for key in round_.done:
            self._finish(key, "done")
        for key, failure in round_.failed.items():
            self._finish(key, "failed", error=failure)
        if round_.requeued:
            with self._lock:
                self._counters["requeues"] += round_.requeued

    def _finish(self, key: str, status: str, error: dict | None = None) -> None:
        """Move one job to a terminal state exactly once.

        The admission slot is released inside the same critical section, so
        ``/stats`` never shows a finished job still holding capacity.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.status != "pending":
                return
            job.status = status
            job.error = error
            self._counters["completed" if status == "done" else "failed"] += 1
            self.admission.release()
