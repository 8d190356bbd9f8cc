"""The trial-distribution queue: a work queue over a shared spool directory.

Submitters offer :class:`~repro.runner.spec.TrialSpec`\\ s to the queue,
worker daemons claim them under revocable leases, heartbeat while
executing, and publish results through the shared content-addressed
:class:`~repro.runner.results.pickle_store.ResultCache` — the cache, not the
queue, is the result channel.  The engine, the worker daemon, the
supervisor and the labeling service each build a :class:`SpoolBroker` over
one shared directory (NFS mount, bind mount, plain local directory).  No
server process is involved; every state transition is a single atomic
filesystem rename, so any number of submitters and workers can share one
spool.

The queue's operations (one method per state transition):

========================  ====================================================
``enqueue(spec)``         offer one trial; idempotent per content key
``enqueue_batch(specs)``  offer many trials, amortising per-call overhead
``lease_batch(w, n)``     claim up to *n* pending trials for worker *w*
``heartbeat(lease)``      refresh a claim's liveness signal
``complete(lease)``       drop a claim after the result reached the cache
``release(lease)``        voluntarily re-offer a claimed trial
``release_expired(...)``  re-offer claims whose heartbeat outlived the TTL
``fail(lease, ...)``      record a failure log (if the claim is still held)
``poll(pending, cache)``  one completion round: done, failed, re-offered
``wait(specs, cache)``    the submitter's backoff loop of ``poll`` rounds
``counts()``              queue snapshot: tasks / leases / failed / corrupt
``backlog()``             scaling signals: queue depth and backlogged shards
``wait_for_work(t)``      an idle worker's wait: a wake, or *t* seconds
``close()``               drop this handle's wake reader
``stats``                 per-instance round-trip counters (measurability)
========================  ====================================================

The contract its callers rely on (``tests/runner/test_broker_contract.py``
pins it, through one handle and through separate submitter and worker
handles over one spool):

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

Spool layout::

    <spool>/
        tasks/<shard>/<key>.task              pending trials (pickled
                                              TrialSpec, atomic write),
                                              sharded by dataset (key
                                              prefix as the fallback)
        tasks/<shard>/<key>.task.corrupt      quarantined unreadable tasks
        leases/<key>.<shard>.<worker>.<token>.lease
                                              claimed trials (mtime =
                                              worker heartbeat; the shard
                                              component records the task's
                                              home so releases restore it)
        failed/<key>.json                     failure logs ({key, worker,
                                              error, traceback})
        wake                                  named pipe idle workers
                                              wait on (made by the first
                                              worker that idles; absent
                                              until then)

How the spool implements each transition:

* **enqueue** — the submitter writes one ``tasks/<shard>/<key>.task`` file
  per pending trial (tempfile + ``os.replace``).  The file name *is* the
  trial's content key, so two submitters enqueueing the same trial write the
  same (identical) file and the trial runs once.
  :meth:`SpoolBroker.enqueue_batch` snapshots the pending and leased key
  sets **once** for a whole grid, so submitting N trials costs a constant
  number of listings instead of N existence probes.
* **lease** — a worker claims a task by renaming it into ``leases/`` under a
  claim name unique to this worker and claim.  ``os.rename`` is atomic on
  the *source*, so exactly one of any number of racing workers wins; the
  losers see ``FileNotFoundError`` and move on to the next candidate.
  :meth:`SpoolBroker.lease_batch` claims up to *n* tasks from a **single**
  shard listing, amortising the directory scan over the whole batch, and
  scans shards and tasks in randomised order (sticking to the previously
  fruitful shard first — dataset affinity) so racing workers spread out
  instead of piling onto one sorted listing.  Because the claim name encodes
  the holder, a worker can always tell whether a lease is still its own (see
  **fail** below).
* **heartbeat** — while executing, the worker periodically touches its lease
  file; the mtime is the liveness signal.  The claim stamps it first: a
  rename keeps the task file's old mtime, which would make a claim on a
  trial that waited longer than the TTL look abandoned at once.
* **complete** — the worker writes the result through the shared
  :class:`~repro.runner.results.pickle_store.ResultCache` *first*, then
  unlinks the lease.  Completion is therefore observable before the lease
  disappears; a crash between the two steps only leaves a lease that
  expires and a cached result the next leaseholder discovers and serves
  without re-executing.
* **release** — anyone (the polling submitter, typically) may rename a lease
  whose mtime is older than the TTL back into ``tasks/`` (into the shard the
  claim name records, so re-offers keep their dataset affinity), re-offering
  a dead worker's trial.  :meth:`SpoolBroker.release_expired` accepts a
  *shards* restriction: the home shard is parsed from the lease **name**, so
  leases outside the shards of interest are skipped before any stat call —
  a submitter policing its own grid on a busy shared spool pays nothing for
  the other submitters' live leases.  If the TTL fires on a *live* worker
  (e.g. a long GC pause), two workers may briefly execute the same trial;
  both write the same content-addressed cache entry, so duplicate execution
  is wasted work but never wrong results.
* **fail** — a trial that raises is recorded under ``failed/`` with the full
  traceback; the submitter surfaces it as :class:`RemoteTrialError` instead
  of waiting forever.  A worker whose claim was revoked (its lease expired
  and was re-offered while the trial was failing) does *not* record the
  failure: the trial belongs to someone else now, and a machine-local error
  from a stale holder must not abort a grid a healthy retry is completing.
* **wake** — an idle worker waits in :meth:`SpoolBroker.wait_for_work` on
  the ``wake`` named pipe, with its poll interval as the timeout.  Every
  call that makes a task file appear (``enqueue``, ``enqueue_batch``,
  ``release``, ``release_expired``) then writes one byte to the pipe
  without blocking, so the worker scans at once instead of at its next
  tick.  The wake is a hint, never the protocol: a write with no reader or
  a full pipe is dropped, a pipe only carries bytes between processes of
  one host, and a lost wake costs at most one poll interval.  Where the
  pipe cannot be made (no ``os.mkfifo``, or ``wake`` is some other file)
  the worker sleeps its poll interval instead.

Sharding: a flat ``tasks/`` directory would make every worker scan the same
listing and race the same tasks — W workers cost up to W−1 failed renames
per claim and one full listing per single lease.  Tasks therefore land in a
per-shard subdirectory named by :meth:`SpoolBroker.shard_for` (the dataset,
so workers that generated a dataset's corpus keep leasing trials that reuse
it).  Only the shard subdirectories are scanned: a task file directly under
``tasks/`` (the layout of spools written before sharding) is never seen, and
the submitter's self-healing re-enqueue files a fresh copy under its shard.
:attr:`SpoolBroker.stats` counts listings and rename attempts so contention
is measurable (``benchmarks/bench_spool.py``).

The submitter side is one round, :meth:`SpoolBroker.poll`: the single
place that decides when a spooled trial counts as done, failed or lost.
It takes one directory-listing snapshot per spool directory per round
instead of a stat per pending key.  :meth:`SpoolBroker.wait` (the engine)
and the labeling service's watcher both loop over it.
"""

# repro: noqa-file[REPRO101] -- lease heartbeats are wall-clock TTLs by
# design (mtime freshness vs lease_ttl); timestamps never reach task
# payloads or content keys.
# repro: noqa-file[REPRO103] -- queue scans are order-independent by
# design: listings feed membership tests and counters, and the claim
# order is deliberately randomised per worker (see lease_batch).

from __future__ import annotations

import json
import math
import os
import pickle
import random
import re
import select
import stat
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.results import RunHistory
from repro.runner.results.pickle_store import ResultCache, atomic_write_bytes
from repro.runner.spec import TrialSpec, key_of

__all__ = [
    "DEFAULT_CLAIM_BATCH",
    "DEFAULT_LEASE_TTL",
    "LeasedTrial",
    "PollRound",
    "RemoteTrialError",
    "SpoolBroker",
    "SpoolStats",
    "SpoolTimeout",
]

#: Default lease time-to-live in seconds: a lease whose heartbeat is older
#: than this is considered abandoned and may be re-offered.  Workers
#: heartbeat every TTL/4 by default, so a live worker keeps a ~4x margin
#: over the expiry check.
DEFAULT_LEASE_TTL = 60.0

#: Default number of tasks a worker claims per batch.  Batching amortises
#: one queue scan over many claims; the worker voluntarily re-offers any
#: leases it has not started when it shuts down.
DEFAULT_CLAIM_BATCH = 8

#: :meth:`SpoolBroker.wait`'s first and longest sleep between poll rounds,
#: in seconds; an idle round grows the sleep 1.5x, a completion resets it.
_POLL_INITIAL = 0.05
_POLL_MAX = 1.0


def sanitize_token(name: str) -> str:
    """Make *name* safe for shard labels and lease-name components.

    Shard labels and lease components must be dot-free (the lease-name
    grammar splits on dots) and filesystem-safe, because both become parts
    of spool file and directory names.
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

    Raised by :meth:`SpoolBroker.wait`; part of the public API as
    ``repro.runner.SpoolTimeout``.
    """


@dataclass
class LeasedTrial:
    """One claimed trial: the spec plus the lease file that proves the claim.

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


@dataclass
class PollRound:
    """What one :meth:`SpoolBroker.poll` round found and did.

    Attributes
    ----------
    done:
        Content key -> history of every pending trial whose result is in
        the store and readable.
    failed:
        Content key -> failure log (``{key, worker, error, traceback}``) of
        every pending trial a worker recorded as failed.
    released:
        Expired claims on the still-open trials re-offered to the workers.
    requeued:
        Still-open trials that had vanished from the queue and were
        enqueued again.
    """

    done: dict[str, RunHistory] = field(default_factory=dict)
    failed: dict[str, dict] = field(default_factory=dict)
    released: int = 0
    requeued: int = 0


@dataclass
class SpoolStats:
    """Spool round-trip counters of one :class:`SpoolBroker` instance.

    The contention fix is only real if it is measurable: these counters are
    what ``benchmarks/bench_spool.py`` (and the CI contention smoke) assert
    on.  They are plain per-instance ints — give each worker thread its own
    broker when aggregating across workers.

    Attributes
    ----------
    listings:
        Directory listings performed (task-shard scans, snapshot sweeps).
    rename_attempts:
        Claim renames attempted by :meth:`SpoolBroker.lease_batch`.
    failed_renames:
        Claim renames lost to another worker — the wasted spool round-trips
        sharding and randomised scan order exist to eliminate.
    claims:
        Tasks successfully claimed.
    batches:
        :meth:`SpoolBroker.lease_batch` calls that scanned the spool.
    """

    listings: int = 0
    rename_attempts: int = 0
    failed_renames: int = 0
    claims: int = 0
    batches: int = 0

    def renames_per_claim(self) -> float:
        """Average claim renames spent per successful claim."""
        return self.rename_attempts / max(self.claims, 1)


class SpoolBroker:
    """Work queue over a shared spool directory (see module docstring).

    Parameters
    ----------
    spool:
        The shared directory.  Created (with its subdirectories) lazily on
        first use; submitters and workers must point at the same path.
    lease_ttl:
        Seconds without a heartbeat after which a lease counts as abandoned.
        Must be positive and finite: a NaN TTL would make every age
        comparison false (live leases released, ``wait`` blind to them) and
        an infinite one cannot pace the workers' heartbeat thread.

    Attributes
    ----------
    stats:
        This instance's :class:`SpoolStats` round-trip counters — give each
        worker thread its own broker when aggregating across workers.
    """

    def __init__(self, spool: str | Path, lease_ttl: float = DEFAULT_LEASE_TTL):
        if not (math.isfinite(lease_ttl) and lease_ttl > 0):
            raise ValueError(f"lease_ttl must be positive and finite, got {lease_ttl!r}")
        self.root = Path(spool)
        self.lease_ttl = float(lease_ttl)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.failed_dir = self.root / "failed"
        self.wake_path = self.root / "wake"
        self.stats = SpoolStats()
        self._rng = random.Random()
        self._affinity_shard: str | None = None
        self._wake_fd: int | None = None

    # -- paths ------------------------------------------------------------

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
        return key_of(spec)[:2]

    def task_path(self, spec: TrialSpec | str) -> Path:
        """Pending-task file path for a spec or key (under its home shard)."""
        return self._task_home(key_of(spec), self.shard_for(spec))

    def _task_home(self, key: str, shard: str) -> Path:
        return self.tasks_dir / shard / f"{key}.task"

    def failure_path(self, spec: TrialSpec | str) -> Path:
        """Failure-log file path for a spec or key."""
        return self.failed_dir / f"{key_of(spec)}.json"

    @staticmethod
    def _entry_key(entry: Path) -> str:
        # Spool entries all lead with the content key (<key>.task,
        # <key>.json, <key>.<shard>.<worker>.<token>.lease); the key is a
        # hex digest and can never contain a dot itself.
        return entry.name.split(".", 1)[0]

    @staticmethod
    def _lease_home_of(name: str) -> tuple[str, str]:
        # <key>.<shard>.<worker>.<token>.lease -> (key, shard); every
        # component is dot-free by construction.
        key, shard = name.split(".", 2)[:2]
        return key, shard

    def _leases_for(self, spec: TrialSpec | str) -> Iterator[Path]:
        if self.leases_dir.is_dir():
            yield from self.leases_dir.glob(f"{key_of(spec)}.*.lease")

    def is_claimed(self, spec: TrialSpec | str) -> bool:
        """Whether any worker currently holds a lease on the trial."""
        return next(self._leases_for(spec), None) is not None

    def _ensure_dirs(self) -> None:
        for directory in (self.tasks_dir, self.leases_dir, self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- submitter side ---------------------------------------------------

    def enqueue(self, spec: TrialSpec) -> bool:
        """Offer *spec* to the workers; returns whether a task file was written.

        Nothing is written when the trial is already pending or currently
        leased by a worker; every submitter files a trial at the same path,
        so enqueueing stays idempotent per content key.  A stale failure
        log for the same key is cleared only when a task file is actually
        (re-)written — re-submitting is the retry path after a fixed
        environment, but an enqueue that changes nothing must not wipe a
        log another submitter's :meth:`wait` is about to raise.
        """
        self._ensure_dirs()
        task = self.task_path(spec)
        if task.exists() or self.is_claimed(spec):
            return False
        self._write_task(task, spec)
        self._wake()
        return True

    def enqueue_batch(self, specs: Sequence[TrialSpec]) -> int:
        """Offer every spec in *specs*; returns how many task files were written.

        Equivalent to enqueueing one at a time, but the already-pending and
        already-leased checks run against **one** snapshot of the spool
        (one ``tasks/`` sweep + one ``leases/`` listing) instead of an
        existence probe and a lease glob per spec, and each shard
        directory is created once per batch rather than once per task.  On
        a paper-scale grid this turns submission from O(N) spool round
        trips into O(shards).

        The per-spec semantics are unchanged: a trial already pending or
        currently leased is skipped, and a stale failure log is cleared
        only for trials actually written.  The snapshot is best-effort for
        *concurrent* enqueues — a trial another submitter files and a
        worker claims between the snapshot and the write is filed again,
        which costs a duplicate execution, never wrong results.
        """
        if not specs:
            return 0
        self._ensure_dirs()
        skip = self._task_key_snapshot() | self._leased_key_snapshot()
        written = 0
        for spec in specs:
            if spec.key in skip:
                continue
            self._write_task(self.task_path(spec), spec)
            skip.add(spec.key)  # same-key duplicates within one batch
            written += 1
        if written:
            # One wake after the last write: the woken worker's one listing
            # then sees the whole batch.
            self._wake()
        return written

    def _write_task(self, task: Path, spec: TrialSpec) -> None:
        """Atomically write one task file, then clear any stale failure log."""
        payload = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        written = False
        for _ in range(10):
            try:
                task.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(task, payload)
                written = True
                break
            except (FileNotFoundError, FileExistsError):
                # A worker rmdir'ed the just-drained shard under us: before
                # the tempfile creation, or inside mkdir itself (pathlib
                # re-raises FileExistsError when the directory vanishes
                # between its mkdir and is_dir probes).  Recreate and retry.
                continue
        if not written:
            raise OSError(f"shard directory for {task} keeps vanishing")
        # Clear the stale log only now that the retry actually exists — a
        # failed write must not discard the failure evidence.
        try:
            self.failure_path(spec.key).unlink()
        except OSError:
            pass

    def release_expired(
        self,
        keys: Sequence[str] | None = None,
        shards: Iterable[str] | None = None,
    ) -> int:
        """Re-offer leases whose heartbeat is older than the TTL.

        *keys* restricts the sweep to the given content keys (a submitter
        only polices its own trials on a shared spool); *shards* restricts
        it to leases whose claim name records a home shard in the given set.
        Both filters are decided from the lease **name** alone — no stat
        call is spent on a lease outside the scope, so a scoped sweep on a
        busy shared spool only pays for the leases it could actually
        re-offer.  ``None`` for either means no restriction.  Each re-offer
        restores the task to the shard its claim name records, so crash
        recovery preserves dataset affinity.  Returns the number of leases
        re-offered.
        """
        wanted = None if keys is None else set(keys)
        in_scope = None if shards is None else set(shards)
        released = 0
        if not self.leases_dir.is_dir():
            return released
        now = time.time()
        self.stats.listings += 1
        for lease in self.leases_dir.glob("*.lease"):
            key, shard = self._lease_home_of(lease.name)
            if wanted is not None and key not in wanted:
                continue
            if in_scope is not None and shard not in in_scope:
                continue
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue  # completed/released under us
            if age <= self.lease_ttl:
                continue
            task = self._task_home(key, shard)
            try:
                if task.exists():
                    # Already re-offered by someone else; dropping the dead
                    # lease is cleanup, not a re-offer — it doesn't count.
                    lease.unlink()
                    continue
                task.parent.mkdir(parents=True, exist_ok=True)
                os.rename(lease, task)
            except OSError:
                continue  # lost the race to another policing process
            released += 1
        if released:
            self._wake()
        return released

    def failure_for(self, spec: TrialSpec | str) -> dict | None:
        """The failure log for a trial, or ``None`` if it has not failed."""
        try:
            return json.loads(self.failure_path(spec).read_text())
        except OSError:
            return None
        except ValueError:
            return None  # half-written by a crashed worker: not actionable

    def poll(self, pending: Mapping[str, TrialSpec], cache: ResultCache) -> PollRound:
        """One completion round over *pending* (content key -> spec).

        Reports each trial whose result is in *cache* and reads back as
        done, and each trial with a failure log as failed.  For the rest it
        re-offers claims whose heartbeat outlived the TTL (sweeping only
        those trials' shards) and re-enqueues trials that vanished from the
        queue.  A round costs a constant number of listings, never a probe
        per pending key.  This is the spool's one completion policy:
        :meth:`wait` loops over it, and so does the labeling service.
        """
        round_ = PollRound()
        # One snapshot per source per round: failure logs and the cache
        # entries for our pending keys, then membership is set lookups.
        failed_keys = self._failed_key_snapshot()
        done_keys = cache.keys_present(pending)
        for key in pending:
            if key in done_keys:
                history = cache.get(key)
                if history is not None:
                    round_.done[key] = history
                    continue
                # get() just quarantined a corrupt entry: still pending,
                # and no longer "done" — drop it from the snapshot so the
                # self-healing pass below re-offers it this round.
                done_keys.discard(key)
            if key in failed_keys:
                failure = self.failure_for(key)
                if failure is not None:
                    round_.failed[key] = failure
        settled = round_.done.keys() | round_.failed.keys()
        still_open = {key: spec for key, spec in pending.items() if key not in settled}
        if not still_open:
            return round_
        leased_keys = self._leased_key_snapshot()
        if any(key in leased_keys for key in still_open):
            # Only sweep for expiry while one of OUR trials is actually
            # claimed — and restrict the sweep to the shards our trials
            # could live in, so a busy shared queue full of other
            # submitters' leases costs us nothing to police.
            round_.released = self.release_expired(
                keys=still_open,
                shards={self.shard_for(spec) for spec in still_open.values()},
            )
        task_keys = self._task_key_snapshot()
        for key, spec in still_open.items():
            # Vanished entirely (quarantined trial or blob, manual queue
            # wipe, the complete/release races): re-offer it from the spec
            # we still hold, making the queue self-healing.  A key with a
            # failure log is NOT re-offered — enqueue would clear the log a
            # worker may have written since this round's failure check, and
            # the next round must report it instead.  The live cache probe
            # here is fine: it only runs for keys already absent from every
            # snapshot, which is the rare self-heal path, not the per-round
            # hot path.
            if key in task_keys or key in leased_keys or key in done_keys:
                continue
            if cache.path_for(key).exists() or self.failure_for(key) is not None:
                continue
            if self.enqueue(spec):
                round_.requeued += 1
        return round_

    def wait(
        self,
        specs: Sequence[TrialSpec],
        cache: ResultCache,
        timeout: float | None = None,
        on_result: Callable[[TrialSpec, RunHistory], None] | None = None,
        on_released: Callable[[int], None] | None = None,
    ) -> dict[str, RunHistory]:
        """Block until every spec's result is in *cache*; return key->history.

        Runs :meth:`poll` rounds with exponential backoff (``_POLL_INITIAL``
        up to ``_POLL_MAX`` seconds) until nothing is pending.

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
        interval = _POLL_INITIAL
        while pending:
            round_ = self.poll(pending, cache)
            for key, history in round_.done.items():
                spec = pending.pop(key)
                histories[key] = history
                if on_result is not None:
                    on_result(spec, history)
            if round_.failed:
                key, failure = next(iter(round_.failed.items()))
                raise RemoteTrialError(
                    key,
                    failure.get("worker", "<unknown>"),
                    failure.get("error", "<unknown>"),
                    failure.get("traceback", ""),
                )
            if round_.released and on_released is not None:
                on_released(round_.released)
            if not pending:
                break
            if round_.done:
                interval = _POLL_INITIAL
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
                        f"workers running against {self.root}? "
                        "(python -m repro.runner.worker --spool ...)"
                    )
            time.sleep(interval)
            interval = min(interval * 1.5, _POLL_MAX)
        return histories

    # -- snapshots for the poll round ---------------------------------------

    def _failed_key_snapshot(self) -> set[str]:
        """Content keys with a failure log (one ``failed/`` listing)."""
        return self._key_snapshot(self.failed_dir, "*.json")

    def _leased_key_snapshot(self) -> set[str]:
        """Content keys of every live lease (one ``leases/`` listing)."""
        return self._key_snapshot(self.leases_dir, "*.lease")

    def _key_snapshot(self, directory: Path, pattern: str) -> set[str]:
        """Content keys present in one spool directory (single listing)."""
        if not directory.is_dir():
            return set()
        self.stats.listings += 1
        try:
            return {self._entry_key(path) for path in directory.glob(pattern)}
        except OSError:
            return set()  # directory pruned between the check and the scan

    def _shards(self) -> list[str]:
        """One listing of ``tasks/``: the shard directory names.

        Shard labels are dot-free, so any dotted entry (a task file left by
        a spool written before sharding, a stray tempfile) is skipped.
        """
        self.stats.listings += 1
        try:
            return [e.name for e in self.tasks_dir.iterdir() if "." not in e.name]
        except OSError:
            return []

    def _task_key_snapshot(self) -> set[str]:
        """Content keys of every pending task, across all shards."""
        keys: set[str] = set()
        if not self.tasks_dir.is_dir():
            return keys
        for shard in self._shards():
            keys |= self._key_snapshot(self.tasks_dir / shard, "*.task")
        return keys

    def _any_fresh_lease(self, keys: Sequence[str]) -> bool:
        """Whether any of *keys* is claimed with an unexpired heartbeat."""
        if not self.leases_dir.is_dir():
            return False
        now = time.time()
        self.stats.listings += 1
        for lease in self.leases_dir.glob("*.lease"):
            if self._entry_key(lease) not in keys:
                continue
            try:
                if now - lease.stat().st_mtime <= self.lease_ttl:
                    return True
            except OSError:
                continue
        return False

    # -- worker side ------------------------------------------------------

    def lease_next(self, worker_id: str = "") -> LeasedTrial | None:
        """Atomically claim one pending trial, or ``None`` if idle.

        Equivalent to :meth:`lease_batch` with a batch of one — every claim
        pays a fresh queue scan, so loops that expect sustained work should
        prefer :meth:`lease_batch`.
        """
        claimed = self.lease_batch(worker_id, limit=1)
        return claimed[0] if claimed else None

    def lease_batch(self, worker_id: str = "", limit: int = DEFAULT_CLAIM_BATCH) -> list[LeasedTrial]:
        """Claim up to *limit* pending trials, amortising listings over renames.

        The shard that satisfied the previous batch is tried first, alone:
        one directory listing of *that shard only* serves the whole batch,
        and since shards are datasets it keeps a worker on trials whose
        generated corpus it already has warm (placement affinity).
        Only when the affinity shard is drained does the worker pay a full
        sweep — one listing of ``tasks/`` to discover shards, then shards
        visited in randomised order, topping the batch up across shards so
        the tail of a grid still fills batches instead of fragmenting into
        one-claim scans.  Candidates within a shard are also scanned in
        randomised order, so racing workers spread out instead of piling
        onto one sorted listing.

        Losing a rename race just moves on to the next candidate.  Each
        claim lands under ``<key>.<shard>.<worker>.<token>.lease`` —
        unique per claim, so the lease file doubles as an ownership
        certificate (and records who holds the trial, and where to restore
        it, for releases and spool post-mortems).  A task file that cannot
        be unpickled is quarantined next to its task location
        (``<key>.task.corrupt``) so it cannot wedge the queue — the
        submitter's self-healing re-enqueue restores a fresh copy.
        """
        if limit < 1:
            return []
        if not self.tasks_dir.is_dir():
            return []
        holder = sanitize_token(worker_id) or "anon"
        self.stats.batches += 1
        if self._affinity_shard:
            # Fast path: as long as the previously fruitful shard keeps
            # yielding work, one listing of *that shard alone* serves the
            # whole batch — no re-discovery of the shard set every call.
            claimed = self._claim_from_shard(self._affinity_shard, holder, limit)
            if claimed:
                return claimed
            self._affinity_shard = None  # shard drained: fall back to a sweep
        order = self._shards()
        self._rng.shuffle(order)
        claimed: list[LeasedTrial] = []
        for shard in order:
            got = self._claim_from_shard(shard, holder, limit - len(claimed))
            if got:
                claimed += got
                # Remember the latest fruitful shard: the next batch's fast
                # path starts there (dataset affinity).
                self._affinity_shard = shard
            elif claimed:
                # An empty shard while already holding work means the spool
                # is draining: start executing the partial batch now instead
                # of paying a listing per mostly-empty shard to top it up.
                break
            if len(claimed) >= limit:
                break
        return claimed

    def _claim_from_shard(self, shard: str, holder: str, limit: int) -> list[LeasedTrial]:
        """Claim up to *limit* tasks from one shard (one listing, n renames)."""
        self.stats.listings += 1
        try:
            tasks = list((self.tasks_dir / shard).glob("*.task"))
        except OSError:
            # Another worker pruned this just-drained shard between our
            # sweep's discovery and this listing (pathlib only swallows
            # PermissionError, not FileNotFoundError).
            return []
        if not tasks:
            # Remove a drained shard directory so sweeps stop probing it —
            # on a long grid most shards end up empty, and every probe of a
            # dead shard is a wasted listing.  rmdir is atomic and fails
            # harmlessly while the shard still holds anything (a racing
            # enqueue, a quarantined task); enqueue retries its write if
            # the directory vanishes under it.
            try:
                os.rmdir(self.tasks_dir / shard)
            except OSError:
                pass
        self._rng.shuffle(tasks)
        claimed: list[LeasedTrial] = []
        for task in tasks:
            lease = self._claim(task, shard, holder)
            if lease is None:
                continue
            claimed.append(lease)
            if len(claimed) >= limit:
                break
        return claimed

    def _claim(self, task: Path, shard: str, holder: str) -> LeasedTrial | None:
        """Attempt one claim rename; ``None`` on a lost race or corrupt task."""
        key = task.name[: -len(".task")]
        token = uuid.uuid4().hex[:8]
        lease = self.leases_dir / f"{key}.{shard}.{holder}.{token}.lease"
        self.stats.rename_attempts += 1
        try:
            os.rename(task, lease)
        except OSError:
            self.stats.failed_renames += 1
            return None  # another worker won this task
        try:
            # The rename keeps the task's mtime (its enqueue time, or a dead
            # holder's last heartbeat): stamp the claim itself, or a trial
            # that waited longer than the TTL is revoked before its first
            # heartbeat.
            os.utime(lease)
        except OSError:
            pass  # revoked already; the expiry sweep owns it now
        try:
            spec = pickle.loads(lease.read_bytes())
        except Exception:
            spec = None
        if not isinstance(spec, TrialSpec):
            # Quarantine next to the task, not inside leases/: nothing ever
            # cleans leases/, and post-mortems must not conflate a bad task
            # file with a real claim.  counts() reports these.
            quarantine = task.with_name(task.name + ".corrupt")
            for _ in range(3):
                try:
                    os.replace(lease, quarantine)
                    break
                except FileNotFoundError:
                    # Claiming this (last) task emptied the shard and a
                    # concurrent sweep pruned its directory: recreate it,
                    # or the garbage would linger as a live-looking lease.
                    quarantine.parent.mkdir(parents=True, exist_ok=True)
                    continue
                except OSError:
                    break
            return None
        self.stats.claims += 1
        return LeasedTrial(key=key, spec=spec, lease_path=lease)

    def heartbeat(self, lease: LeasedTrial) -> None:
        """Refresh the lease's liveness signal (touch its mtime)."""
        try:
            os.utime(lease.lease_path)
        except OSError:
            pass  # lease was released/expired under us; expiry handles it

    def complete(self, lease: LeasedTrial) -> None:
        """Drop the lease after the result reached the cache."""
        try:
            lease.lease_path.unlink()
        except OSError:
            pass

    def release(self, lease: LeasedTrial) -> None:
        """Voluntarily re-offer a claimed trial (worker shutting down).

        The task is restored to the shard its claim name records, so a
        release never migrates a task between shards.
        """
        key, shard = self._lease_home_of(lease.lease_path.name)
        task = self._task_home(key, shard)
        for _ in range(3):
            try:
                if task.exists():
                    lease.lease_path.unlink()
                else:
                    task.parent.mkdir(parents=True, exist_ok=True)
                    os.rename(lease.lease_path, task)
                    self._wake()
                return
            except FileNotFoundError:
                if not lease.lease_path.exists():
                    return  # lease revoked under us; nothing left to re-offer
                continue  # shard dir rmdir'ed under the rename: retry mkdir
            except OSError:
                return

    def fail(self, lease: LeasedTrial, worker_id: str, error: BaseException, traceback_text: str) -> None:
        """Record a trial failure and drop the lease — if the claim is still ours.

        The failure log (not the exception) is what crosses the machine
        boundary; :meth:`wait` re-raises it as :class:`RemoteTrialError`.

        A revoked claim (the lease file is gone: the TTL expired and the
        trial was re-offered while this worker was busy dying) records
        nothing: the failure may be local to this worker, and aborting the
        submitter would discard a healthy retry already in flight.  The
        check races revocation by design — the window shrinks from the
        whole trial duration to one stat call, and the residual race only
        re-raises a genuine failure one retry later.
        """
        if not lease.lease_path.exists():
            return
        self._ensure_dirs()
        payload = {
            "key": lease.key,
            "worker": worker_id,
            "error": repr(error),
            "traceback": traceback_text,
        }
        atomic_write_bytes(
            self.failure_path(lease.key),
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
        )
        self.complete(lease)

    # -- wake channel -----------------------------------------------------

    def _wake(self) -> None:
        """Tell idle workers a task file appeared (one byte into the wake pipe).

        Best effort and never blocking: with no pipe yet (``ENOENT``), no
        worker waiting (``ENXIO``) or a wake already pending in a full pipe
        (``EAGAIN``) there is nobody to tell or nothing to add.  A ``wake``
        that is not a pipe is left untouched.
        """
        if not hasattr(os, "mkfifo"):
            return
        try:
            fd = os.open(self.wake_path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            return
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                os.write(fd, b"\0")
        except OSError:
            pass
        finally:
            os.close(fd)

    def _open_wake_reader(self) -> int | None:
        """Make the wake pipe if needed and open its read end; ``None`` if it cannot serve.

        It cannot serve without ``os.mkfifo`` on this platform, in an
        unwritable spool, or where ``wake`` is some other file.  A pipe
        already there (another worker's, or one a dead worker left) is
        reused.  ``O_RDWR`` keeps a writer open on our own side, so the pipe
        never reads as closed and submitters' writes always find a reader
        while this handle lives.
        """
        if not hasattr(os, "mkfifo"):
            return None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            try:
                os.mkfifo(self.wake_path)
            except FileExistsError:
                pass
            fd = os.open(self.wake_path, os.O_RDWR | os.O_NONBLOCK)
        except OSError:
            return None
        if not stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.close(fd)
            return None
        return fd

    def wait_for_work(self, timeout: float) -> None:
        """An idle worker's wait: return on a wake, or after *timeout* seconds.

        The worker calls this after a scan found nothing to claim and scans
        again when it returns.  Pending wake bytes are drained, so a burst of
        enqueues costs one rescan.  *timeout* caps the wait when a wake is
        lost (another host's submitter, a dropped write); without a wake
        pipe this is a plain sleep of *timeout*.
        """
        if self._wake_fd is None:
            self._wake_fd = self._open_wake_reader()
            if self._wake_fd is None:
                time.sleep(timeout)
            # Else return at once: a task filed between the caller's scan
            # and this open woke nobody, so scan again before waiting.
            return
        # poll, not select: select cannot take a descriptor numbered past
        # FD_SETSIZE, which a thread worker inside a busy server can get.
        poller = select.poll()
        poller.register(self._wake_fd, select.POLLIN)
        if not poller.poll(1000.0 * timeout):
            return
        try:
            while os.read(self._wake_fd, 4096):
                pass
        except BlockingIOError:
            pass  # drained

    def close(self) -> None:
        """Close this handle's wake reader, if :meth:`wait_for_work` opened one.

        The pipe itself stays in the spool for the next worker.
        """
        if self._wake_fd is not None:
            os.close(self._wake_fd)
            self._wake_fd = None

    # -- introspection ----------------------------------------------------

    def counts(self) -> dict[str, int]:
        """``{"tasks", "leases", "failed", "corrupt"}`` spool snapshot.

        ``tasks`` spans every shard; ``corrupt`` counts the quarantined task
        files (``*.task.corrupt``) in the shards.
        """
        tasks = corrupt = 0
        if self.tasks_dir.is_dir():
            for shard in self._shards():
                try:
                    entries = list((self.tasks_dir / shard).iterdir())
                except OSError:
                    continue  # shard pruned between discovery and listing
                for entry in entries:
                    if entry.name.endswith(".task"):
                        tasks += 1
                    elif entry.name.endswith(".task.corrupt"):
                        corrupt += 1
        leases = failed = 0
        if self.leases_dir.is_dir():
            leases = sum(1 for _ in self.leases_dir.glob("*.lease"))
        if self.failed_dir.is_dir():
            failed = sum(1 for _ in self.failed_dir.glob("*.json"))
        return {"tasks": tasks, "leases": leases, "failed": failed, "corrupt": corrupt}

    def backlog(self) -> dict[str, int]:
        """Scaling signals: pending depth and distinct shards holding work.

        One ``tasks/`` sweep plus one listing per live shard — the same
        cost as :meth:`counts` — returning ``{"tasks", "shards",
        "leases"}`` for the fleet supervisor: queue depth sizes the pool,
        and the number of backlogged shards bounds how many workers can
        claim without racing each other under dataset affinity.
        """
        tasks = 0
        busy_shards: set[str] = set()
        if self.tasks_dir.is_dir():
            for shard in self._shards():
                pending = len(self._key_snapshot(self.tasks_dir / shard, "*.task"))
                if pending:
                    tasks += pending
                    busy_shards.add(shard)
        leases = 0
        if self.leases_dir.is_dir():
            leases = sum(1 for _ in self.leases_dir.glob("*.lease"))
        return {"tasks": tasks, "shards": len(busy_shards), "leases": leases}
