"""The broker protocol: the contract the trial-distribution queue implements.

A *broker* is the coordination layer of distributed execution: submitters
offer :class:`~repro.runner.spec.TrialSpec`s to it, worker daemons claim
them under revocable leases, heartbeat while executing, and publish results
through the shared content-addressed
:class:`~repro.runner.results.pickle_store.ResultCache` — the cache, not the
broker, is the result channel.  The engine, the worker daemon, the
supervisor and the labeling service talk only to this protocol; its one
implementation is :class:`~repro.runner.brokers.spool.SpoolBroker`, a
shared directory of atomic renames with no server process at all.

The protocol (one method per state transition):

========================  ====================================================
``enqueue(spec)``         offer one trial; idempotent per content key
``enqueue_batch(specs)``  offer many trials, amortising per-call overhead
``lease_batch(w, n)``     claim up to *n* pending trials for worker *w*
``heartbeat(lease)``      refresh a claim's liveness signal
``complete(lease)``       drop a claim after the result reached the cache
``release(lease)``        voluntarily re-offer a claimed trial
``release_expired(...)``  re-offer claims whose heartbeat outlived the TTL
``fail(lease, ...)``      record a failure log (if the claim is still held)
``counts()``              queue snapshot: tasks / leases / failed / corrupt
``backlog()``             scaling signals: queue depth and backlogged shards
``stats``                 per-instance round-trip counters (measurability)
========================  ====================================================

Semantics an implementation must honour (the contract test suite in
``tests/runner/test_broker_contract.py`` pins them on the spool):

* **content-keyed idempotence** — enqueueing an already-pending or
  already-claimed trial changes nothing;
* **exactly-one winner** — of any number of racing claims on one trial;
* **ownership certificates** — a lease records who holds it; a holder whose
  claim was revoked (expired and re-offered) can neither drop the new
  holder's claim nor record a failure log for it;
* **failure logs are conditional evidence** — ``enqueue`` clears a stale
  failure log only when it actually (re-)writes the trial, never out from
  under a currently-claimed, currently-failing trial;
* **sharding** — trials are grouped by a shard label (their dataset) so
  workers keep dataset affinity and scaling policies can see per-shard
  backlog.

The submitter-side polling loop (:meth:`Broker.wait`) is implemented here,
on top of a small set of snapshot hooks the implementation provides.
"""

from __future__ import annotations

import abc
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.results import RunHistory
from repro.runner.spec import TrialSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runner.results.pickle_store import ResultCache

#: Default lease time-to-live in seconds: a lease whose heartbeat is older
#: than this is considered abandoned and may be re-offered.  Workers
#: heartbeat every TTL/4 by default, so a live worker keeps a ~4x margin
#: over the expiry check.
DEFAULT_LEASE_TTL = 60.0

#: Default number of tasks a worker claims per batch.  Batching amortises
#: one queue scan over many claims; the worker voluntarily re-offers any
#: leases it has not started when it shuts down.
DEFAULT_CLAIM_BATCH = 8


def sanitize_token(name: str) -> str:
    """Make *name* safe for shard labels and lease-name components.

    Shard labels and lease components must be dot-free (the spool's
    lease-name grammar splits on dots) and filesystem-safe, because both
    become parts of spool file and directory names.
    """
    return re.sub(r"[^A-Za-z0-9_-]+", "-", name)


class RemoteTrialError(RuntimeError):
    """A trial failed on a remote worker.

    Carries the worker's failure log so the submitter can show the remote
    traceback instead of a bare "trial missing" timeout.
    """

    def __init__(self, key: str, worker: str, error: str, traceback_text: str):
        self.key = key
        self.worker = worker
        self.error = error
        self.traceback_text = traceback_text
        super().__init__(
            f"trial {key[:12]}... failed on worker {worker!r}: {error}\n"
            f"--- remote traceback ---\n{traceback_text}"
        )


class SpoolTimeout(TimeoutError):
    """The submitter's wait deadline passed with trials still outstanding.

    Raised by :meth:`Broker.wait`; part of the public API as
    ``repro.runner.SpoolTimeout``.
    """


class Broker(abc.ABC):
    """Abstract work queue distributing :class:`TrialSpec`s to workers.

    Subclasses implement the state transitions (enqueue / lease / heartbeat
    / complete / release / expire / fail) plus the snapshot hooks the
    generic polling loop needs; :meth:`wait` — the submitter side — is
    implemented here.

    Attributes an implementation exposes:

    ``lease_ttl``
        Seconds without a heartbeat after which a claim counts as abandoned.
    ``stats``
        A per-instance dataclass of round-trip counters, with at least
        ``claims`` and ``batches`` fields — give each worker thread its own
        broker instance when aggregating across workers.
    """

    lease_ttl: float

    # -- sharding ---------------------------------------------------------

    @staticmethod
    def key_of(spec: TrialSpec | str) -> str:
        """Content key of a spec (or pass a raw key through)."""
        return spec.key if isinstance(spec, TrialSpec) else str(spec)

    def shard_for(self, spec: TrialSpec | str) -> str:
        """Shard label a trial for *spec* is filed under.

        The sanitised dataset name, so workers keep dataset affinity.  A
        raw key carries no dataset, and a dataset name may have no safe
        characters at all; both fall back to the key's first two hex
        characters.
        """
        if isinstance(spec, TrialSpec):
            name = sanitize_token(spec.dataset).strip("-")
            if name:
                return name
        return self.key_of(spec)[:2]

    # -- submitter side ---------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, spec: TrialSpec) -> bool:
        """Offer *spec* to the workers; returns whether anything was written.

        Idempotent per content key: nothing is written (and ``False`` is
        returned) when the trial is already pending or currently claimed.
        A stale failure log for the same key is cleared only when the trial
        is actually (re-)written — re-submitting is the retry path after a
        fixed environment, but an enqueue that changes nothing must not
        wipe a log another submitter's :meth:`wait` is about to raise.
        """

    @abc.abstractmethod
    def enqueue_batch(self, specs: Sequence[TrialSpec]) -> int:
        """Offer every spec in *specs*; returns how many were actually written.

        Semantically ``sum(enqueue(spec) for spec in specs)``, with
        per-call work (one pending-set snapshot) amortised over the whole
        batch.
        """

    @abc.abstractmethod
    def release_expired(
        self,
        keys: Sequence[str] | None = None,
        shards: Iterable[str] | None = None,
    ) -> int:
        """Re-offer claims whose heartbeat is older than the TTL.

        *keys* restricts the sweep to the given content keys (a submitter
        only polices its own trials on a shared queue); *shards* restricts
        it to claims whose recorded home shard is in the given set, so a
        scoped sweep inspects only the shards with leases of interest
        instead of the full lease population.  ``None`` for either means
        no restriction.  Returns the number of claims re-offered.
        """

    @abc.abstractmethod
    def failure_for(self, spec: TrialSpec | str) -> dict | None:
        """The failure log for a trial (``{key, worker, error, traceback}``),
        or ``None`` if it has not failed."""

    # -- worker side ------------------------------------------------------

    def lease_next(self, worker_id: str = ""):
        """Atomically claim one pending trial, or ``None`` if idle.

        Equivalent to :meth:`lease_batch` with a batch of one — every claim
        pays a fresh queue scan, so loops that expect sustained work should
        prefer :meth:`lease_batch`.
        """
        claimed = self.lease_batch(worker_id, limit=1)
        return claimed[0] if claimed else None

    @abc.abstractmethod
    def lease_batch(self, worker_id: str = "", limit: int = DEFAULT_CLAIM_BATCH) -> list:
        """Claim up to *limit* pending trials for *worker_id*.

        Exactly one of any number of racing claimants wins each trial.
        Consecutive batches prefer the shard that satisfied the previous
        one (dataset affinity).  Returns lease objects that carry at least
        ``.key`` and ``.spec`` and are accepted by :meth:`heartbeat`,
        :meth:`complete`, :meth:`release` and :meth:`fail`.
        """

    @abc.abstractmethod
    def heartbeat(self, lease) -> None:
        """Refresh the claim's liveness signal (a no-op on a revoked claim)."""

    @abc.abstractmethod
    def complete(self, lease) -> None:
        """Drop the claim after the result reached the cache.

        Only the claim's holder can drop it: a revoked claim (expired and
        re-offered to another worker) is left untouched.
        """

    @abc.abstractmethod
    def release(self, lease) -> None:
        """Voluntarily re-offer a claimed trial (worker shutting down).

        The trial is restored to the shard the claim records, so a release
        never migrates a trial between shards.
        """

    @abc.abstractmethod
    def fail(
        self, lease, worker_id: str, error: BaseException, traceback_text: str
    ) -> None:
        """Record a trial failure and drop the claim — if it is still held.

        The failure log (not the exception) is what crosses the machine
        boundary; :meth:`wait` re-raises it as :class:`RemoteTrialError`.
        A revoked claim records nothing: the failure may be local to the
        stale holder, and aborting the submitter would discard a healthy
        retry already in flight.
        """

    # -- introspection ----------------------------------------------------

    @abc.abstractmethod
    def counts(self) -> dict[str, int]:
        """Queue snapshot: ``{"tasks", "leases", "failed", "corrupt"}``."""

    @abc.abstractmethod
    def backlog(self) -> dict[str, int]:
        """Scaling signals: pending depth and how many shards hold work.

        ``{"tasks": <pending trials>, "shards": <distinct shards with at
        least one pending trial>, "leases": <claimed trials>}`` — what the
        fleet supervisor sizes the worker pool from.
        """

    # -- snapshot hooks for the generic wait loop -------------------------

    @abc.abstractmethod
    def _failed_key_snapshot(self) -> set[str]:
        """Content keys with a failure log (one snapshot, no per-key probes)."""

    @abc.abstractmethod
    def _pending_key_snapshot(self) -> set[str]:
        """Content keys of every pending (unclaimed) trial."""

    @abc.abstractmethod
    def _leased_key_snapshot(self) -> set[str]:
        """Content keys of every currently claimed trial."""

    @abc.abstractmethod
    def _any_fresh_lease(self, keys: Sequence[str]) -> bool:
        """Whether any of *keys* is claimed with an unexpired heartbeat."""

    @property
    @abc.abstractmethod
    def location(self) -> Path | str:
        """Where this queue lives (shown in timeout diagnostics)."""

    # -- the generic submitter polling loop -------------------------------

    def wait(
        self,
        specs: Sequence[TrialSpec],
        cache: ResultCache,
        timeout: float | None = None,
        poll_initial: float = 0.05,
        poll_max: float = 1.0,
        on_result: Callable[[TrialSpec, RunHistory], None] | None = None,
        on_released: Callable[[int], None] | None = None,
    ) -> dict[str, RunHistory]:
        """Block until every spec's result is in *cache*; return key->history.

        Polls with exponential backoff (*poll_initial* doubling-ish up to
        *poll_max* seconds), re-releasing expired claims and re-enqueueing
        trials that disappeared from the queue entirely along the way.
        Each round costs a constant number of snapshot queries/listings —
        never a probe per pending key, which at up to 20 Hz early in the
        backoff would hammer a shared queue on paper-scale grids.  The
        expiry sweep is scoped to the pending keys *and* their shards, so
        it inspects only the shards with leases of interest.

        Raises :class:`RemoteTrialError` as soon as any trial has a failure
        log, and :class:`SpoolTimeout` if *timeout* seconds pass with trials
        still outstanding *and no live worker lease on any of them* — a
        fresh heartbeat extends the deadline, so the timeout detects
        abandonment, not trials that simply run long (``None`` waits
        forever — only sensible when workers are known to be running).

        *on_result* fires once per completed trial (the engine counts
        remote completions with it); *on_released* fires with the number of
        claims re-offered by each expiry sweep.
        """
        pending: dict[str, TrialSpec] = {spec.key: spec for spec in specs}
        histories: dict[str, RunHistory] = {}
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        interval = poll_initial
        while pending:
            progressed = False
            # One snapshot per source per round: failure logs and the cache
            # entries for our pending keys, then membership is dict lookups.
            failed_keys = self._failed_key_snapshot()
            done_keys = cache.keys_present(pending)
            for key in list(pending):
                if key in done_keys:
                    history = cache.get(key)
                    if history is not None:
                        spec = pending.pop(key)
                        histories[key] = history
                        if on_result is not None:
                            on_result(spec, history)
                        progressed = True
                        continue
                    # get() just quarantined a corrupt entry: still pending,
                    # and no longer "done" — drop it from the snapshot so
                    # the self-healing pass below re-offers it this round.
                    done_keys.discard(key)
                if key in failed_keys:
                    failure = self.failure_for(key)
                    if failure is not None:
                        raise RemoteTrialError(
                            key,
                            failure.get("worker", "<unknown>"),
                            failure.get("error", "<unknown>"),
                            failure.get("traceback", ""),
                        )
            if not pending:
                break
            leased_keys = self._leased_key_snapshot()
            if any(key in leased_keys for key in pending):
                # Only sweep for expiry while one of OUR trials is actually
                # claimed — and restrict the sweep to the shards our trials
                # could live in, so a busy shared queue full of other
                # submitters' leases costs us nothing to police.
                released = self.release_expired(
                    keys=pending,
                    shards={self.shard_for(spec) for spec in pending.values()},
                )
                if released and on_released is not None:
                    on_released(released)
            task_keys = self._pending_key_snapshot()
            for key, spec in pending.items():
                # Vanished entirely (quarantined trial, manual queue wipe,
                # the complete/release races): re-offer it from the spec we
                # still hold, making the protocol self-healing.  A key with
                # a failure log is NOT re-offered — enqueue would clear the
                # log a worker may have written since this round's failure
                # check, and the next round must raise it instead.  The
                # live cache probe here is fine: it only runs for keys
                # already absent from every snapshot, which is the rare
                # self-heal path, not the per-round hot path.
                if key in task_keys or key in leased_keys or key in done_keys:
                    continue
                if not cache.path_for(key).exists() and self.failure_for(key) is None:
                    self.enqueue(spec)
            if progressed:
                interval = poll_initial
                continue
            if deadline is not None and time.monotonic() >= deadline:
                if self._any_fresh_lease(pending):
                    # A worker is actively heartbeating one of our trials:
                    # the timeout guards against *abandonment*, not against
                    # trials longer than the timeout — push the deadline.
                    deadline = time.monotonic() + float(timeout)
                else:
                    raise SpoolTimeout(
                        f"{len(pending)} trial(s) still outstanding after "
                        f"{timeout:g}s with no live worker lease — are any "
                        f"workers running against {self.location}? "
                        "(python -m repro.runner.worker --spool ...)"
                    )
            time.sleep(interval)
            interval = min(interval * 1.5, poll_max)
        return histories


@dataclass
class LeasedTrial:
    """One claimed trial: the spec plus the lease file that proves the claim.

    This is the :class:`~repro.runner.brokers.spool.SpoolBroker` lease
    shape, kept beside the contract so code that only handles leases
    needs no spool import.  The contract itself relies only on ``key``
    and ``spec``.

    Attributes
    ----------
    key:
        The trial's content key (the first dot-separated component of the
        lease file name).
    spec:
        The trial description, unpickled from the claimed task file.
    lease_path:
        The claim-unique lease file under ``<spool>/leases/``
        (``<key>.<shard>.<worker>.<token>.lease``); its mtime is the
        heartbeat, and its continued existence is proof the claim was not
        revoked.
    """

    key: str
    spec: TrialSpec
    lease_path: Path
