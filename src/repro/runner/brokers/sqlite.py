"""SQLite broker: the :class:`Broker` protocol over one WAL-mode database file.

Where the filesystem spool turns a shared directory into a queue, this
backend turns a single SQLite file into one.  Every protocol operation is a
short ``BEGIN IMMEDIATE`` transaction, so claims are decided by the
database's write lock instead of by rename races: contention costs a claimant
a bounded lock wait, never a wasted round trip, which is exactly the trade
to make on hosts where shared-filesystem rename latency (NFS, overlayfs) is
the bottleneck.  WAL journaling keeps readers (queue snapshots, the
submitter's polling loop, the supervisor's ``backlog()``) off the writers'
lock entirely.

Schema (registered-table style — each table is declared once in
:data:`_TABLES` and created idempotently, with ``PRAGMA user_version``
recording the schema generation)::

    tasks(key PRIMARY KEY, shard, spec BLOB, state, worker, token,
          heartbeat, enqueued_at)         -- state: pending|leased|corrupt
        + index (state, shard)            -- dataset-affinity claims and
                                          -- shard-scoped expiry sweeps are
                                          -- index lookups
    failures(key PRIMARY KEY, worker, error, traceback, failed_at)

State mapping from the spool's directories: a pending task file is a
``state='pending'`` row; a lease file is the *same row* flipped to
``state='leased'`` with the holder's identity in ``worker``/``token`` and
the heartbeat wall-clock in ``heartbeat`` (a column, not an mtime); a
quarantined task is ``state='corrupt'``; a failure log is a ``failures``
row.  The (worker, token) pair is the ownership certificate the spool
encodes in its lease file name — ``heartbeat`` / ``complete`` / ``release``
/ ``fail`` all condition on the token, so a revoked claim (expired,
re-offered, re-claimed under a new token) can neither drop the new holder's
lease nor record a failure log for it.

Results never touch the database: workers publish through the shared
content-addressed :class:`~repro.runner.results.pickle_store.ResultCache`
exactly as under the spool, so distributed runs stay byte-identical to
serial regardless of backend.

Concurrency: one connection per broker instance, opened lazily (safe to
construct before forking worker subprocesses) with
``check_same_thread=False`` plus an instance :class:`~threading.RLock` — the
worker daemon's heartbeat thread shares the daemon's broker instance.  Cross
*process* coordination is the database's own locking (`busy_timeout` makes
lock waits bounded-blocking instead of immediate ``SQLITE_BUSY`` errors).
"""

# repro: noqa-file[REPRO101] -- lease heartbeats are wall-clock TTLs by
# design (heartbeat_at vs lease_ttl); timestamps never reach task payloads
# or content keys.

from __future__ import annotations

import pickle
import random
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.runner.brokers.base import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL,
    Broker,
    sanitize_token,
)
from repro.runner.spec import TrialSpec

__all__ = ["SqliteBroker", "SqliteLease", "SqliteStats", "DB_FILENAME"]

#: File name used when :class:`SqliteBroker` is pointed at a directory: the
#: database lands *inside* it, so one ``--spool`` path works for both
#: backends (the spool uses the directory, SQLite uses this file in it).
DB_FILENAME = "broker.sqlite3"

#: Path suffixes treated as "this is the database file itself".
_DB_SUFFIXES = (".sqlite3", ".sqlite", ".db")

#: Schema generation stamped into ``PRAGMA user_version``.
_SCHEMA_VERSION = 1

# Registered tables: declared once, created idempotently on first use.
# Adding a table (e.g. the planned run-history index) means adding an entry
# here and bumping _SCHEMA_VERSION.
_TABLES = {
    "tasks": """
        CREATE TABLE IF NOT EXISTS tasks (
            key         TEXT PRIMARY KEY,
            shard       TEXT NOT NULL DEFAULT '',
            spec        BLOB NOT NULL,
            state       TEXT NOT NULL DEFAULT 'pending'
                        CHECK (state IN ('pending', 'leased', 'corrupt')),
            worker      TEXT,
            token       TEXT,
            heartbeat   REAL,
            enqueued_at REAL NOT NULL
        )
    """,
    "failures": """
        CREATE TABLE IF NOT EXISTS failures (
            key       TEXT PRIMARY KEY,
            worker    TEXT NOT NULL,
            error     TEXT NOT NULL,
            traceback TEXT NOT NULL,
            failed_at REAL NOT NULL
        )
    """,
}

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_tasks_state_shard ON tasks (state, shard)",
)

# sqlite's default SQLITE_MAX_VARIABLE_NUMBER is 999 on older builds; stay
# comfortably under it when expanding key sets into IN (...) clauses.
_IN_CHUNK = 500


def _chunks(values: Sequence[str], size: int = _IN_CHUNK) -> Iterator[Sequence[str]]:
    for start in range(0, len(values), size):
        yield values[start : start + size]


@dataclass
class SqliteStats:
    """Database round-trip counters of one :class:`SqliteBroker` instance.

    The SQLite analogue of :class:`~repro.runner.brokers.spool.SpoolStats`:
    per-instance ints (give each worker thread its own broker when
    aggregating), asserted on by ``benchmarks/bench_broker.py``.  There are
    no rename races to count — contention shows up as transactions per
    claim instead.

    Attributes
    ----------
    transactions:
        Write transactions committed (each is one bounded write-lock hold).
    queries:
        Read-only statements executed (snapshots, counts, freshness probes).
    claims:
        Tasks successfully claimed by :meth:`SqliteBroker.lease_batch`.
    batches:
        :meth:`SqliteBroker.lease_batch` calls that queried the queue.
    """

    transactions: int = 0
    queries: int = 0
    claims: int = 0
    batches: int = 0

    def transactions_per_claim(self) -> float:
        """Average write transactions spent per successful claim."""
        return self.transactions / max(self.claims, 1)


@dataclass
class SqliteLease:
    """One claimed trial: the spec plus the token that proves the claim.

    Attributes
    ----------
    key:
        The trial's content key (the ``tasks`` row's primary key).
    spec:
        The trial description, unpickled from the claimed row.
    worker:
        The sanitised holder identity recorded on the row.
    token:
        The claim-unique ownership certificate — heartbeats, completion,
        release and failure logging all condition on it, so a revoked claim
        cannot touch its successor's row.
    shard:
        The shard label the row is filed under (releases restore it there).
    """

    key: str
    spec: TrialSpec
    worker: str
    token: str
    shard: str


class SqliteBroker(Broker):
    """Work queue over a single WAL-mode SQLite file (see module docstring).

    Parameters
    ----------
    location:
        The database file, or a directory to put one in (``<location>/
        broker.sqlite3``) — the latter lets one ``--spool`` path serve both
        backends.  Parent directories are created lazily on first use;
        submitters and workers must point at the same path.
    lease_ttl:
        Seconds without a heartbeat after which a claim counts as abandoned.
    """

    #: Shared state the lock-discipline checker holds to `with self._lock:`
    #: (or the `_tx` transaction scope, which takes the lock itself).
    _GUARDED_BY_LOCK = ("_conn", "_affinity_shard")
    _LOCK_CONTEXTS = ("_tx",)

    def __init__(self, location: str | Path, lease_ttl: float = DEFAULT_LEASE_TTL):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        location = Path(location)
        self.path = (
            location
            if location.suffix in _DB_SUFFIXES
            else location / DB_FILENAME
        )
        self.lease_ttl = float(lease_ttl)
        self.stats = SqliteStats()
        self._rng = random.Random()
        self._affinity_shard: str | None = None
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None

    # -- connection management --------------------------------------------

    @property
    def location(self) -> Path:
        """The database file (shown in timeout diagnostics)."""
        return self.path

    def _connect(self) -> sqlite3.Connection:  # repro: locked
        """The lazily opened connection (schema ensured on first use)."""
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=30.0,
                isolation_level=None,  # explicit BEGIN IMMEDIATE below
                check_same_thread=False,  # guarded by self._lock
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            for statement in _TABLES.values():
                conn.execute(statement)
            for statement in _INDEXES:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the connection (reopened lazily if the broker is reused)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        # One bounded write-lock hold: BEGIN IMMEDIATE takes the database
        # write lock up front (no deferred-upgrade deadlocks between racing
        # claimants), COMMIT releases it, errors roll back.
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            self.stats.transactions += 1

    def _read(self, sql: str, params: Sequence = ()) -> list[sqlite3.Row]:
        # WAL readers never block on the writers' lock.
        with self._lock:
            self.stats.queries += 1
            return self._connect().execute(sql, params).fetchall()

    # -- submitter side ---------------------------------------------------

    def enqueue(self, spec: TrialSpec) -> bool:
        """Offer *spec* to the workers; returns whether a row was written.

        Nothing is written when the trial is already pending or currently
        leased (the key is the primary key, so a trial has exactly one
        row).  A ``corrupt`` row
        is overwritten with the fresh spec — the same self-heal path as
        re-enqueueing over a quarantined spool task.  A stale failure log
        is cleared only when the row is actually (re-)written.
        """
        with self._tx() as conn:
            return self._enqueue_in_tx(conn, spec)

    def enqueue_batch(self, specs: Sequence[TrialSpec]) -> int:
        """Offer every spec in *specs* in **one** transaction.

        Per-spec semantics are identical to :meth:`enqueue`; the batch
        amortises the write-lock acquisition and the fsync at commit over
        the whole grid, which is the difference between N bounded lock
        waits and one.
        """
        if not specs:
            return 0
        with self._tx() as conn:
            return sum(self._enqueue_in_tx(conn, spec) for spec in specs)

    def _enqueue_in_tx(self, conn: sqlite3.Connection, spec: TrialSpec) -> bool:
        row = conn.execute(
            "SELECT state FROM tasks WHERE key = ?", (spec.key,)
        ).fetchone()
        if row is not None and row["state"] != "corrupt":
            return False
        conn.execute(
            "INSERT OR REPLACE INTO tasks (key, shard, spec, state, enqueued_at)"
            " VALUES (?, ?, ?, 'pending', ?)",
            (
                spec.key,
                self.shard_for(spec),
                pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL),
                time.time(),
            ),
        )
        # Clear the stale log only now that the retry actually exists.
        conn.execute("DELETE FROM failures WHERE key = ?", (spec.key,))
        return True

    def release_expired(
        self,
        keys: Sequence[str] | None = None,
        shards: Iterable[str] | None = None,
    ) -> int:
        """Re-offer claims whose heartbeat is older than the TTL.

        *keys* and *shards* restrict the sweep exactly as on the spool; the
        shard restriction rides the ``(state, shard)`` index, so a scoped
        sweep on a busy shared queue touches only the rows it could
        actually re-offer.  Rows keep their shard column, so crash recovery
        preserves dataset affinity by construction.  Returns the number of
        claims re-offered.
        """
        cutoff = time.time() - self.lease_ttl
        conditions = ["state = 'leased'", "heartbeat < ?"]
        params: list = [cutoff]
        if shards is not None:
            scope = sorted(set(shards))
            conditions.append(
                f"shard IN ({','.join('?' * len(scope))})" if scope else "0"
            )
            params += scope
        released = 0
        with self._tx() as conn:
            if keys is None:
                cursor = conn.execute(
                    "UPDATE tasks SET state='pending', worker=NULL, token=NULL,"
                    f" heartbeat=NULL WHERE {' AND '.join(conditions)}",
                    params,
                )
                released = cursor.rowcount
            else:
                for chunk in _chunks(sorted(set(keys))):
                    marks = ",".join("?" * len(chunk))
                    cursor = conn.execute(
                        "UPDATE tasks SET state='pending', worker=NULL,"
                        " token=NULL, heartbeat=NULL"
                        f" WHERE {' AND '.join(conditions)} AND key IN ({marks})",
                        params + list(chunk),
                    )
                    released += cursor.rowcount
        return released

    def failure_for(self, spec: TrialSpec | str) -> dict | None:
        """The failure log for a trial, or ``None`` if it has not failed."""
        rows = self._read(
            "SELECT key, worker, error, traceback FROM failures WHERE key = ?",
            (self.key_of(spec),),
        )
        return dict(rows[0]) if rows else None

    # -- snapshot hooks for the generic wait loop -------------------------

    def _failed_key_snapshot(self) -> set[str]:
        """Content keys with a failure log (one indexed scan)."""
        return {row["key"] for row in self._read("SELECT key FROM failures")}

    def _pending_key_snapshot(self) -> set[str]:
        """Content keys of every pending trial (one indexed scan)."""
        return {
            row["key"]
            for row in self._read("SELECT key FROM tasks WHERE state = 'pending'")
        }

    def _leased_key_snapshot(self) -> set[str]:
        """Content keys of every claimed trial (one indexed scan)."""
        return {
            row["key"]
            for row in self._read("SELECT key FROM tasks WHERE state = 'leased'")
        }

    def _any_fresh_lease(self, keys: Sequence[str]) -> bool:
        """Whether any of *keys* is claimed with an unexpired heartbeat."""
        cutoff = time.time() - self.lease_ttl
        for chunk in _chunks(sorted(keys)):
            marks = ",".join("?" * len(chunk))
            rows = self._read(
                "SELECT 1 FROM tasks WHERE state='leased' AND heartbeat >= ?"
                f" AND key IN ({marks}) LIMIT 1",
                [cutoff, *chunk],
            )
            if rows:
                return True
        return False

    # -- worker side ------------------------------------------------------

    def lease_batch(self, worker_id: str = "", limit: int = DEFAULT_CLAIM_BATCH) -> list[SqliteLease]:
        """Claim up to *limit* pending trials in one transaction.

        The shard that satisfied the previous batch is tried first (dataset
        affinity — same policy as the spool), topped up across other shards
        in randomised order.  Each claim flips the row to
        ``leased`` under a claim-unique token inside a single ``BEGIN
        IMMEDIATE`` transaction, so exactly one of any number of racing
        claimants wins each row and nobody pays a wasted round trip.  A row
        whose spec no longer unpickles is flipped to ``corrupt`` (the
        quarantine state) in the same transaction so it cannot wedge the
        queue; the submitter's self-healing re-enqueue overwrites it with a
        fresh copy.
        """
        if limit < 1:
            return []
        holder = sanitize_token(worker_id) or "anon"
        self.stats.batches += 1
        claimed: list[SqliteLease] = []
        with self._tx() as conn:
            order: list[str] = []
            if self._affinity_shard is not None:
                order.append(self._affinity_shard)
            shards = [
                row["shard"]
                for row in conn.execute(
                    "SELECT DISTINCT shard FROM tasks WHERE state = 'pending'"
                )
            ]
            self._rng.shuffle(shards)
            order += [shard for shard in shards if shard != self._affinity_shard]
            for shard in order:
                got = self._claim_from_shard(conn, shard, holder, limit - len(claimed))
                if got:
                    claimed += got
                    self._affinity_shard = shard
                if len(claimed) >= limit:
                    break
            if not claimed:
                self._affinity_shard = None
        self.stats.claims += len(claimed)
        return claimed

    def _claim_from_shard(
        self, conn: sqlite3.Connection, shard: str, holder: str, limit: int
    ) -> list[SqliteLease]:
        """Claim up to *limit* rows from one shard (inside the caller's tx)."""
        token = uuid.uuid4().hex[:8]
        rows = conn.execute(
            "UPDATE tasks SET state='leased', worker=?, token=?, heartbeat=?"
            " WHERE state='pending' AND key IN ("
            "   SELECT key FROM tasks WHERE state='pending' AND shard=?"
            "  ORDER BY RANDOM() LIMIT ?"
            " ) RETURNING key, spec, token",
            (holder, token, time.time(), shard, limit),
        ).fetchall()
        claimed: list[SqliteLease] = []
        for row in rows:
            try:
                spec = pickle.loads(row["spec"])
            except Exception:
                spec = None
            if not isinstance(spec, TrialSpec):
                # Quarantine in place: the row stops matching every claim
                # and snapshot query but stays visible to counts().
                conn.execute(
                    "UPDATE tasks SET state='corrupt', worker=NULL, token=NULL,"
                    " heartbeat=NULL WHERE key=?",
                    (row["key"],),
                )
                continue
            claimed.append(
                SqliteLease(
                    key=row["key"],
                    spec=spec,
                    worker=holder,
                    token=row["token"],
                    shard=shard,
                )
            )
        return claimed

    def heartbeat(self, lease: SqliteLease) -> None:
        """Refresh the claim's heartbeat column (a no-op on a revoked claim)."""
        with self._tx() as conn:
            conn.execute(
                "UPDATE tasks SET heartbeat=? WHERE key=? AND token=?"
                " AND state='leased'",
                (time.time(), lease.key, lease.token),
            )

    def complete(self, lease: SqliteLease) -> None:
        """Drop the claim after the result reached the cache (token-checked)."""
        with self._tx() as conn:
            conn.execute(
                "DELETE FROM tasks WHERE key=? AND token=? AND state='leased'",
                (lease.key, lease.token),
            )

    def release(self, lease: SqliteLease) -> None:
        """Voluntarily re-offer a claimed trial (token-checked).

        The row keeps its shard column, so a release never migrates a trial
        between shards.
        """
        with self._tx() as conn:
            conn.execute(
                "UPDATE tasks SET state='pending', worker=NULL, token=NULL,"
                " heartbeat=NULL WHERE key=? AND token=? AND state='leased'",
                (lease.key, lease.token),
            )

    def fail(self, lease: SqliteLease, worker_id: str, error: BaseException, traceback_text: str) -> None:
        """Record a trial failure and drop the claim — if it is still ours.

        The token check makes revocation exact here (no stat-call race as
        on the spool): the row delete and the failure insert commit in one
        transaction, so either this worker still held the claim and the
        failure is recorded, or the claim was re-offered and nothing
        happens.
        """
        with self._tx() as conn:
            cursor = conn.execute(
                "DELETE FROM tasks WHERE key=? AND token=? AND state='leased'",
                (lease.key, lease.token),
            )
            if cursor.rowcount:
                conn.execute(
                    "INSERT OR REPLACE INTO failures"
                    " (key, worker, error, traceback, failed_at)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (lease.key, worker_id, repr(error), traceback_text, time.time()),
                )

    # -- introspection ----------------------------------------------------

    def counts(self) -> dict[str, int]:
        """``{"tasks", "leases", "failed", "corrupt"}`` queue snapshot.

        The same four-key shape as the spool's: ``tasks`` are pending rows,
        ``leases`` are claimed rows, ``corrupt`` are quarantined rows,
        ``failed`` counts failure logs.
        """
        by_state = {
            row["state"]: row["n"]
            for row in self._read(
                "SELECT state, COUNT(*) AS n FROM tasks GROUP BY state"
            )
        }
        failed = self._read("SELECT COUNT(*) AS n FROM failures")[0]["n"]
        return {
            "tasks": by_state.get("pending", 0),
            "leases": by_state.get("leased", 0),
            "failed": failed,
            "corrupt": by_state.get("corrupt", 0),
        }

    def backlog(self) -> dict[str, int]:
        """Scaling signals (``{"tasks", "shards", "leases"}``), one indexed scan."""
        row = self._read(
            "SELECT COUNT(*) AS tasks, COUNT(DISTINCT shard) AS shards"
            " FROM tasks WHERE state = 'pending'"
        )[0]
        leases = self._read(
            "SELECT COUNT(*) AS n FROM tasks WHERE state = 'leased'"
        )[0]["n"]
        return {"tasks": row["tasks"], "shards": row["shards"], "leases": leases}
