"""Elastic worker-fleet supervisor: scale worker daemons to the queue.

PRs 4–5 made workers stateless and interchangeable — all coordination lives
in the broker's lease protocol — so *how many* workers exist at any moment
is pure policy.  The supervisor is that policy as a process::

    python -m repro.runner.supervisor --spool /shared/spool \\
        --cache-dir /shared/cache --max-workers 8

Each control tick it:

1. **reaps** worker subprocesses that exited (self-retired on
   ``--idle-timeout``, or crashed);
2. **polices** the queue with ``release_expired()`` so a crashed worker's
   leases are re-offered after one TTL instead of wedging the grid;
3. reads the scaling signals from :meth:`SpoolBroker.counts
   <repro.runner.brokers.spool.SpoolBroker.counts>` — queue depth says how much
   work there is, the number of backlogged shards says how many workers can
   claim concurrently without racing each other under dataset affinity;
4. **spawns** workers up to the target (never beyond ``max_workers``).

Scale-down is *voluntary*: the supervisor never kills a busy worker.
Workers retire themselves via the existing ``--idle-timeout`` control,
and the supervisor simply reaps them and does not replace them while the
queue is shallow.  That keeps the invariant
that a claimed trial is only ever abandoned by a crash — which the TTL
already handles — never by fleet policy.

Lifecycle:

* **drain** (``--drain``): exit once the queue is empty, every lease is
  resolved and every worker has retired — "finish the backlog, then go
  away" for batch fleets and CI smokes.
* **graceful shutdown**: on SIGINT/SIGTERM the supervisor forwards SIGINT
  to every live worker (their shutdown handler re-offers all held leases
  immediately — no TTL wait), waits a grace period, and terminates
  stragglers.

The supervisor polices the same filesystem
:class:`~repro.runner.brokers.SpoolBroker` its workers claim from, with the
same ``--lease-ttl`` it passes to them.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Protocol

from repro.runner.brokers import DEFAULT_CLAIM_BATCH, DEFAULT_LEASE_TTL, SpoolBroker
from repro.runner.fleet import subprocess_env, worker_command

#: Default seconds of emptiness after which a spawned worker retires itself
#: (the supervisor's scale-*down* mechanism — see module docstring).
DEFAULT_WORKER_IDLE_TIMEOUT = 5.0

#: Default pending-trials-per-worker ratio the fleet is sized by.
DEFAULT_TASKS_PER_WORKER = DEFAULT_CLAIM_BATCH

#: Default hard cap on concurrently live workers.
DEFAULT_MAX_WORKERS = 4


class WorkerHandle(Protocol):
    """What the supervisor needs from a spawned worker process.

    ``subprocess.Popen`` satisfies it; tests inject lighter fakes.
    """

    def poll(self) -> int | None:
        """Exit code if the worker has exited, else ``None``."""

    def wait(self, timeout: float | None = None) -> int:
        """Block until exit (raises ``subprocess.TimeoutExpired`` on timeout)."""

    def send_signal(self, sig: int) -> None:
        """Deliver *sig* to the worker (no-op if already exited)."""

    def terminate(self) -> None:
        """Forcibly stop the worker."""


class Supervisor:
    """Spawn and retire ``python -m repro.runner.worker`` daemons to fit the queue.

    Parameters
    ----------
    spool:
        Shared spool directory (the workers' ``--spool``); the supervisor
        reads its scaling signals from a :class:`SpoolBroker` over it.
    cache_dir:
        Shared result-cache root (the workers' ``--cache-dir``).
    min_workers:
        Floor of live workers while supervising (default 0 — a drained
        queue costs no processes).
    max_workers:
        Hard cap of concurrently live workers.
    tasks_per_worker:
        Fleet sizing ratio: one worker per this many pending trials
        (rounded up), bounded below by the number of backlogged shards so
        a wide queue gets one claimant per shard even when shallow.
    worker_idle_timeout:
        Seconds of emptiness after which a spawned worker retires itself —
        the scale-down knob (forwarded as ``--idle-timeout``).
    claim_batch:
        Forwarded as ``--claim-batch``.
    lease_ttl:
        Lease TTL for both the policing sweep and the spawned workers.
    poll_interval:
        Seconds between control ticks in :meth:`run`.
    spawn:
        Injectable worker factory ``spawn(worker_id) -> WorkerHandle``;
        defaults to launching the real worker daemon as a subprocess.
        Tests use fakes (and in-thread workers) here.
    quiet:
        Suppress the supervisor's own stderr lines and pass ``--quiet`` to
        spawned workers.
    """

    def __init__(
        self,
        spool: str | Path,
        cache_dir: str | Path,
        min_workers: int = 0,
        max_workers: int = DEFAULT_MAX_WORKERS,
        tasks_per_worker: int = DEFAULT_TASKS_PER_WORKER,
        worker_idle_timeout: float = DEFAULT_WORKER_IDLE_TIMEOUT,
        claim_batch: int = DEFAULT_CLAIM_BATCH,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 0.5,
        spawn: Callable[[str], WorkerHandle] | None = None,
        quiet: bool = False,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if min_workers < 0 or min_workers > max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        if tasks_per_worker < 1:
            raise ValueError("tasks_per_worker must be at least 1")
        self.spool = str(spool)
        self.cache_dir = str(cache_dir)
        self.broker = SpoolBroker(spool, lease_ttl=lease_ttl)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.tasks_per_worker = tasks_per_worker
        self.worker_idle_timeout = worker_idle_timeout
        self.claim_batch = claim_batch
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = poll_interval
        self.quiet = quiet
        self._spawn = spawn or self._spawn_subprocess
        self._workers: dict[str, WorkerHandle] = {}
        self._spawned_total = 0
        self._reaped: dict[str, int] = {}

    # -- observability ----------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[supervisor] {message}", file=sys.stderr, flush=True)

    @property
    def workers(self) -> Mapping[str, WorkerHandle]:
        """Live workers by id (spawned and not yet reaped)."""
        return dict(self._workers)

    @property
    def spawned_total(self) -> int:
        """Workers spawned over this supervisor's lifetime."""
        return self._spawned_total

    @property
    def reaped(self) -> Mapping[str, int]:
        """Exit codes of reaped workers by id."""
        return dict(self._reaped)

    # -- the control loop -------------------------------------------------

    def _spawn_subprocess(self, worker_id: str) -> WorkerHandle:
        command = worker_command(
            self.spool,
            self.cache_dir,
            lease_ttl=self.lease_ttl,
            claim_batch=self.claim_batch,
            idle_timeout=self.worker_idle_timeout,
            worker_id=worker_id,
            quiet=self.quiet,
        )
        # Spawned workers must resolve `repro` the same way this process
        # did, even when it was launched via PYTHONPATH=src.
        return subprocess.Popen(command, env=subprocess_env())

    def target_workers(self, counts: Mapping[str, int]) -> int:
        """Fleet size for a :meth:`SpoolBroker.counts` reading.

        One worker per ``tasks_per_worker`` pending trials (rounded up),
        raised to one per backlogged shard (a wide-but-shallow queue still
        gets a claimant per shard, which is what dataset affinity can use),
        clamped into ``[min_workers, max_workers]``.  With no pending work
        the target is ``min_workers`` — outstanding leases belong to
        already-live workers and need no reinforcements.
        """
        tasks = counts.get("tasks", 0)
        shards = counts.get("shards", 0)
        if tasks <= 0:
            return self.min_workers
        by_depth = math.ceil(tasks / self.tasks_per_worker)
        return max(self.min_workers, min(self.max_workers, max(by_depth, shards)))

    def step(self) -> dict[str, int]:
        """One control tick: reap, police, size, spawn.  Returns a summary.

        The summary maps ``reaped`` / ``released`` / ``spawned`` (this
        tick's actions), ``live`` (workers after the tick) and ``target``
        (the size the tick aimed for) to their counts — what the tests and
        the drain loop observe.
        """
        reaped = 0
        for worker_id, handle in list(self._workers.items()):
            code = handle.poll()
            if code is not None:
                del self._workers[worker_id]
                self._reaped[worker_id] = code
                reaped += 1
                self._log(f"reaped {worker_id} (exit {code})")
        # Crashed-worker recovery: a worker that died without releasing
        # leaves leases to age out; one sweep per tick re-offers them.
        released = self.broker.release_expired()
        if released:
            self._log(f"re-offered {released} expired lease(s)")
        counts = self.broker.counts()
        target = self.target_workers(counts)
        spawned = 0
        while len(self._workers) < target:
            worker_id = f"supervised-{os.getpid()}-{self._spawned_total}"
            self._workers[worker_id] = self._spawn(worker_id)
            self._spawned_total += 1
            spawned += 1
            self._log(
                f"spawned {worker_id} "
                f"({counts['tasks']} pending / {counts['shards']} shard(s))"
            )
        return {
            "reaped": reaped,
            "released": released,
            "spawned": spawned,
            "live": len(self._workers),
            "target": target,
        }

    def drained(self) -> bool:
        """Whether the queue is empty, lease-free and the fleet has retired."""
        if self._workers:
            return False
        counts = self.broker.counts()
        return counts["tasks"] == 0 and counts["leases"] == 0

    def run(self, drain: bool = False, max_ticks: int | None = None) -> int:
        """Supervise until interrupted (or, with *drain*, until work is done).

        Returns the number of workers spawned over the run.  *max_ticks*
        bounds the loop for tests; ``None`` loops until drained (drain
        mode) or forever (service mode, until :class:`KeyboardInterrupt`
        triggers :meth:`shutdown`).
        """
        ticks = 0
        try:
            while True:
                self.step()
                ticks += 1
                if drain and self.drained():
                    self._log("drained: queue empty and fleet retired")
                    break
                if max_ticks is not None and ticks >= max_ticks:
                    break
                time.sleep(self.poll_interval)
        except (KeyboardInterrupt, SystemExit):
            self._log("interrupted: shutting fleet down")
            self.shutdown()
            raise
        return self._spawned_total

    def shutdown(self, grace: float = 10.0) -> None:
        """Stop the fleet: SIGINT every worker, wait *grace*, terminate the rest.

        SIGINT first because the worker's interrupt path re-offers every
        held lease immediately — a terminated worker's leases would instead
        sit out a full TTL before any submitter could re-offer them.
        """
        for worker_id, handle in self._workers.items():
            try:
                handle.send_signal(signal.SIGINT)
            except OSError:
                pass
            self._log(f"sent SIGINT to {worker_id}")
        deadline = time.monotonic() + grace
        for worker_id, handle in list(self._workers.items()):
            remaining = max(0.0, deadline - time.monotonic())
            try:
                code = handle.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self._log(f"terminating {worker_id} (grace period expired)")
                handle.terminate()
                code = handle.wait(timeout=5.0)
            del self._workers[worker_id]
            self._reaped[worker_id] = code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.runner.supervisor``); returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.supervisor",
        description="Autoscale repro worker daemons against a shared trial queue.",
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
        "--min-workers",
        type=int,
        default=0,
        help="keep at least this many workers alive (default 0)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=DEFAULT_MAX_WORKERS,
        help=f"never exceed this many live workers (default {DEFAULT_MAX_WORKERS})",
    )
    parser.add_argument(
        "--tasks-per-worker",
        type=int,
        default=DEFAULT_TASKS_PER_WORKER,
        help="size the fleet at one worker per this many pending trials "
        f"(default {DEFAULT_TASKS_PER_WORKER})",
    )
    parser.add_argument(
        "--worker-idle-timeout",
        type=float,
        default=DEFAULT_WORKER_IDLE_TIMEOUT,
        help="workers retire after this many idle seconds — the scale-down "
        f"knob (default {DEFAULT_WORKER_IDLE_TIMEOUT:g})",
    )
    parser.add_argument(
        "--claim-batch",
        type=int,
        default=DEFAULT_CLAIM_BATCH,
        help="tasks each worker claims per queue scan",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help="lease time-to-live in seconds (must match the submitter's)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between control ticks (default 0.5)",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty and every worker has retired",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress supervisor and worker logs"
    )
    args = parser.parse_args(argv)
    supervisor = Supervisor(
        args.spool,
        args.cache_dir,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        tasks_per_worker=args.tasks_per_worker,
        worker_idle_timeout=args.worker_idle_timeout,
        claim_batch=args.claim_batch,
        lease_ttl=args.lease_ttl,
        poll_interval=args.interval,
        quiet=args.quiet,
    )
    try:
        supervisor.run(drain=args.drain)
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
