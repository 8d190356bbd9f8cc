"""Worker daemon: executes brokered trials on any machine that can see the queue.

Run one (or many) of these on every machine that shares the spool directory
and the cache directory::

    python -m repro.runner.worker --spool /shared/spool --cache-dir /shared/cache

The worker claims trials from the filesystem
:class:`~repro.runner.brokers.SpoolBroker` under ``--spool``.  It loops
forever (until ``--max-trials`` or ``--idle-timeout``): claim a batch of
pending trials (``--claim-batch`` tasks per queue scan — one scan amortised
over the whole batch, and consecutive batches stick to the same dataset
shard so generated corpora stay warm), heartbeat every held lease from a
background thread, and execute the batch with the engine's canonical
:func:`~repro.runner.executor.run_trial` loop.
Each result is written through the shared
:class:`~repro.runner.results.IndexedResultStore` (the pickle-shard blob,
then its row in the ``results.sqlite3`` run-history index) *while its lease
is still heartbeating* — a slow publish (NFS, large history) must not let
the lease expire and the completed trial get re-executed elsewhere — and
only then is the lease dropped.  A trial that raises is recorded as a
failure log for the submitter to surface; the worker itself keeps serving
other trials.  On shutdown (interrupt), every lease not yet completed —
including claimed but unstarted batch members — is voluntarily re-offered.

Workers are stateless and interchangeable: all coordination lives in the
broker's lease protocol, and results are content-addressed, so adding a
worker never requires telling the submitter (or the other workers) about it
— which is exactly what lets ``repro.runner.supervisor`` scale the fleet up
and down freely.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
import traceback

from repro.runner.brokers import DEFAULT_CLAIM_BATCH, DEFAULT_LEASE_TTL, SpoolBroker
from repro.runner.executor import run_trial
from repro.runner.results import IndexedResultStore


def default_worker_id() -> str:
    """Host-and-pid identity recorded in failure logs (``host-pid``)."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat(threading.Thread):
    """Background thread touching every held lease while a batch executes.

    The worker's main thread is busy inside a trial for potentially many
    TTLs, so liveness must be signalled from the side — for the trial being
    executed *and* for the claimed-but-unstarted remainder of the batch,
    which would otherwise age out and be re-offered mid-batch.  A missed
    heartbeat (this thread dying with the process) is exactly what lets the
    submitter re-offer the trials.
    """

    #: Shared state the lock-discipline checker holds to `with self._lock:`.
    _GUARDED_BY_LOCK = ("_leases",)

    def __init__(self, broker: SpoolBroker, leases: list, interval: float):
        super().__init__(daemon=True)
        self._broker = broker
        self._leases = list(leases)
        self._lock = threading.Lock()
        self._interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via integration
        while not self._stopped.wait(self._interval):
            for lease in self.outstanding():
                self._broker.heartbeat(lease)

    def outstanding(self) -> list:
        """The leases still held (claimed, neither completed nor released)."""
        with self._lock:
            return list(self._leases)

    def discard(self, lease) -> None:
        """Stop heartbeating *lease* (it was completed, failed or released)."""
        with self._lock:
            if lease in self._leases:
                self._leases.remove(lease)

    def stop(self) -> None:
        """Stop heartbeating and wait for the thread to exit."""
        self._stopped.set()
        self.join()


def run_worker(
    spool: str,
    cache_dir: str,
    max_trials: int | None = None,
    idle_timeout: float | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.2,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
    worker_id: str | None = None,
    quiet: bool = False,
) -> int:
    """Serve trials from the shared queue until done; returns the number executed.

    Parameters
    ----------
    spool:
        Shared spool directory (same path the submitter configured).
    cache_dir:
        Shared result-store root: each published trial lands as a blob and
        then as a row of the ``results.sqlite3`` run-history index, spec
        fields and all.
    max_trials:
        Exit after executing this many trials (``None`` = unbounded).
    idle_timeout:
        Exit after this many consecutive seconds without finding a pending
        task (``None`` = wait forever).
    lease_ttl:
        Lease time-to-live; must match (or exceed) the submitter's so a
        healthy heartbeat is never mistaken for death.
    poll_interval:
        The longest idle wait when no wake arrives: after a scan finds
        nothing, the worker waits on the spool's wake pipe
        (:meth:`~repro.runner.brokers.SpoolBroker.wait_for_work`) and scans
        again at the first enqueue or release, or after this many seconds.
        Also the pause before retrying after a failed result write.
    claim_batch:
        Tasks claimed per spool scan (clamped so ``max_trials`` is never
        over-claimed); ``1`` restores one-listing-per-claim behaviour.
        Claimed leases are heartbeated until executed, so a batch pins its
        trials to this worker: at the tail of a grid a large batch can
        serialise the last trials onto one worker while the rest idle.
        Keep it well below (pending trials / workers) when individual
        trials are long; the listing amortisation matters on huge grids of
        short trials, where the tail is negligible.
    worker_id:
        Identity recorded in failure logs; defaults to ``host-pid``.
    quiet:
        Suppress per-trial progress lines on stderr.
    """
    if claim_batch < 1:
        raise ValueError("claim_batch must be at least 1")
    broker = SpoolBroker(spool, lease_ttl=lease_ttl)
    cache = IndexedResultStore(cache_dir)
    identity = worker_id or default_worker_id()
    heartbeat_interval = max(lease_ttl / 4.0, 0.05)

    def log(message: str) -> None:
        if not quiet:
            print(f"[worker {identity}] {message}", file=sys.stderr, flush=True)

    executed = 0
    idle_since = time.monotonic()
    log(f"serving queue {broker.root} -> cache {cache.root}")
    try:
        while max_trials is None or executed < max_trials:
            want = claim_batch if max_trials is None else min(claim_batch, max_trials - executed)
            leases = broker.lease_batch(identity, limit=want)
            if not leases:
                if (
                    idle_timeout is not None
                    and time.monotonic() - idle_since >= idle_timeout
                ):
                    break
                broker.wait_for_work(poll_interval)
                continue
            heartbeat = _Heartbeat(broker, leases, heartbeat_interval)
            heartbeat.start()
            try:
                for lease in leases:
                    if cache.get(lease.key) is not None:
                        # Another worker (or a previous life of this trial,
                        # completed right before its holder crashed) already
                        # produced the result: content addressing makes
                        # re-execution pure waste.
                        log(f"{lease.key[:12]}... already cached, skipping")
                        broker.complete(lease)
                        heartbeat.discard(lease)
                        continue
                    try:
                        started = time.perf_counter()
                        history = run_trial(lease.spec)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as error:
                        broker.fail(lease, identity, error, traceback.format_exc())
                        heartbeat.discard(lease)
                        log(f"{lease.key[:12]}... FAILED: {error!r}")
                        continue
                    try:
                        # The lease is still heartbeating here: a publish slower
                        # than the TTL (NFS stall, large history) must not look
                        # like a dead worker and get the finished trial re-run.
                        # Publishing the spec (not just the key) lets an indexed
                        # store materialise the spec-enrichment columns.
                        cache.put(
                            lease.spec,
                            history,
                            wall_seconds=time.perf_counter() - started,
                        )
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as error:
                        # Publishing failed (disk full, NFS hiccup): this is
                        # worker-side infrastructure, not a property of the
                        # trial, so no failure log — re-offer the trial for any
                        # worker (including this one, once the condition clears)
                        # and keep the daemon alive.  The sleep paces the retry
                        # loop when the condition persists.
                        broker.release(lease)
                        heartbeat.discard(lease)
                        log(f"{lease.key[:12]}... cache write failed ({error!r}); re-offered")
                        time.sleep(poll_interval)
                        continue
                    broker.complete(lease)
                    heartbeat.discard(lease)
                    executed += 1
                    log(
                        f"{lease.key[:12]}... done in {time.perf_counter() - started:.2f}s "
                        f"({lease.spec.framework} on {lease.spec.dataset}, "
                        f"seed {lease.spec.seed}) [{executed}"
                        + (f"/{max_trials}]" if max_trials is not None else "]")
                    )
            except BaseException:
                # Shutdown (or an error escaping the loop itself, e.g. the
                # failure-log write blowing up) mid-batch: stop heartbeating and
                # re-offer every still-held lease — the in-flight trial and the
                # claimed-but-unstarted remainder — so other workers pick them
                # up now instead of after a TTL expiry.  Leaking the heartbeat
                # here would keep the leases fresh forever and wedge the
                # submitter's abandonment detection.
                remaining = heartbeat.outstanding()
                for lease in remaining:
                    broker.release(lease)
                    heartbeat.discard(lease)
                heartbeat.stop()
                log(f"aborting batch, re-offered {len(remaining)} lease(s)")
                raise
            heartbeat.stop()
            # The idle clock starts when the batch *finishes*, not when it was
            # claimed: a batch longer than idle_timeout must not make the first
            # empty poll after it look like idle_timeout seconds of idleness.
            idle_since = time.monotonic()
    finally:
        broker.close()
    log(f"exiting after {executed} trial(s)")
    return executed


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.runner.worker``); returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.worker",
        description="Execute spooled experiment trials on this machine.",
    )
    parser.add_argument(
        "--spool",
        required=True,
        help="shared spool directory (the submitter's spool_dir)",
    )
    parser.add_argument(
        "--cache-dir", required=True, help="shared trial-result cache directory"
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="exit after executing this many trials (default: unbounded)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds with no pending tasks (default: wait forever)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help="lease time-to-live in seconds (must match the submitter's)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="the longest idle wait when no wake arrives, in seconds",
    )
    parser.add_argument(
        "--claim-batch",
        type=int,
        default=DEFAULT_CLAIM_BATCH,
        help="tasks claimed per spool scan "
        f"(default {DEFAULT_CLAIM_BATCH}; 1 = one listing per claim)",
    )
    parser.add_argument(
        "--worker-id", default=None, help="identity recorded in failure logs"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    args = parser.parse_args(argv)
    try:
        run_worker(
            args.spool,
            args.cache_dir,
            max_trials=args.max_trials,
            idle_timeout=args.idle_timeout,
            lease_ttl=args.lease_ttl,
            poll_interval=args.poll_interval,
            claim_batch=args.claim_batch,
            worker_id=args.worker_id,
            quiet=args.quiet,
        )
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
