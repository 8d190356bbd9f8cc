"""The queryable run-history database: trial metrics as real SQLite columns.

The pickle-shard blob store is write-optimised and opaque — any analytical
question ("all trials where warm-start was off and accuracy dropped",
cross-grid leaderboards, dedup probes at millions-of-trials scale) means
unpickling everything.  :class:`RunHistoryDB` is the read-optimised sibling:
one WAL-mode SQLite file (``results.sqlite3``, inside the cache directory)
whose rows materialise what the blobs bury — spec fields, headline metrics
and per-iteration records — so those questions become indexed
``SELECT``\\ s that never touch a blob.

Schema (registered-table style — each table is declared once in
:data:`_TABLES` and created idempotently, with ``PRAGMA user_version``
recording the schema generation)::

    trials(key PRIMARY KEY, framework, dataset, seed,
           n_iterations, n_evaluations, average_accuracy, final_accuracy,
           label_coverage, label_accuracy, n_lfs, n_selected_lfs,
           lm_em_iterations, lm_fits, lm_warm_fits, al_fits, al_warm_fits,
           glasso_fits, glasso_warm_fits, lm_converged_fits, lm_final_loss,
           glasso_sweeps, wall_seconds,
           cache_version, protocol, pipeline_kwargs, group_label)
        + index (dataset, framework)     -- cross-grid filters/leaderboards
    iterations(key, iteration, query_index, lf_name, pseudo_label,
               n_lfs, n_selected_lfs, label_coverage, label_accuracy,
               test_accuracy)            -- PK (key, iteration)
    benchmark_runs(id, benchmark, recorded_at, values_json)
        + index (benchmark, recorded_at) -- the per-PR benchmark trajectory

Two ingredient classes of columns, because the index must stay *rebuildable
from the blobs alone*:

* **blob-derived** — everything a :class:`~repro.core.results.RunHistory`
  carries (framework/dataset/seed, accuracy aggregates, the final record's
  cumulative fit counters, the per-iteration child rows).
  ``--reindex`` reproduces these exactly from a pickle-only cache.
* **spec enrichments** (``cache_version``, ``protocol``,
  ``pipeline_kwargs``, ``group_label``, ``wall_seconds``) — known only at
  publish time, stored as canonical JSON when the ``put`` carried a
  :class:`~repro.runner.spec.TrialSpec`, ``NULL`` otherwise.  A rebuild
  from blobs leaves them ``NULL``; everything else is identical.

The index is *derived state*: blobs are the source of truth, index writes
are eventually consistent (a crash between blob write and index write loses
only the index row), and :meth:`reindex` rebuilds the whole thing by walking
the shards.

Concurrency: one lazily opened connection per instance
(``check_same_thread=False`` plus an instance lock), short ``BEGIN
IMMEDIATE`` write transactions, WAL so readers never block on writers,
``busy_timeout`` for bounded cross-process lock waits.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.results import RunHistory
from repro.runner.spec import CACHE_FORMAT_VERSION, TrialSpec, canonical_value

__all__ = ["RunHistoryDB", "DB_FILENAME", "TRIAL_METRICS"]

#: File name used when :class:`RunHistoryDB` is pointed at a directory: the
#: database lands *inside* it, next to the blob shards it indexes.
DB_FILENAME = "results.sqlite3"

#: Path suffixes treated as "this is the database file itself".
_DB_SUFFIXES = (".sqlite3", ".sqlite", ".db")

#: Schema generation stamped into ``PRAGMA user_version``.
_SCHEMA_VERSION = 1

#: Numeric ``trials`` columns accepted as ``--metric`` / predicate targets
#: by the query helpers (kept in one place so the CLI can validate names).
TRIAL_METRICS = (
    "average_accuracy",
    "final_accuracy",
    "n_iterations",
    "n_evaluations",
    "label_coverage",
    "label_accuracy",
    "n_lfs",
    "n_selected_lfs",
    "lm_em_iterations",
    "lm_fits",
    "lm_warm_fits",
    "al_fits",
    "al_warm_fits",
    "glasso_fits",
    "glasso_warm_fits",
    "lm_converged_fits",
    "lm_final_loss",
    "glasso_sweeps",
    "wall_seconds",
)

# Registered tables: declared once, created idempotently on first use.
# Adding a table means adding an entry here and bumping _SCHEMA_VERSION.
_TABLES = {
    "trials": """
        CREATE TABLE IF NOT EXISTS trials (
            key               TEXT PRIMARY KEY,
            framework         TEXT NOT NULL,
            dataset           TEXT NOT NULL,
            seed              INTEGER NOT NULL,
            n_iterations      INTEGER NOT NULL,
            n_evaluations     INTEGER NOT NULL,
            average_accuracy  REAL NOT NULL,
            final_accuracy    REAL NOT NULL,
            label_coverage    REAL,
            label_accuracy    REAL,
            n_lfs             INTEGER,
            n_selected_lfs    INTEGER,
            lm_em_iterations  INTEGER,
            lm_fits           INTEGER,
            lm_warm_fits      INTEGER,
            al_fits           INTEGER,
            al_warm_fits      INTEGER,
            glasso_fits       INTEGER,
            glasso_warm_fits  INTEGER,
            lm_converged_fits INTEGER,
            lm_final_loss     REAL,
            glasso_sweeps     INTEGER,
            wall_seconds      REAL,
            cache_version     INTEGER,
            protocol          TEXT,
            pipeline_kwargs   TEXT,
            group_label       TEXT
        )
    """,
    "iterations": """
        CREATE TABLE IF NOT EXISTS iterations (
            key            TEXT NOT NULL,
            iteration      INTEGER NOT NULL,
            query_index    INTEGER NOT NULL,
            lf_name        TEXT,
            pseudo_label   INTEGER,
            n_lfs          INTEGER,
            n_selected_lfs INTEGER,
            label_coverage REAL,
            label_accuracy REAL,
            test_accuracy  REAL,
            PRIMARY KEY (key, iteration)
        )
    """,
    "benchmark_runs": """
        CREATE TABLE IF NOT EXISTS benchmark_runs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            benchmark   TEXT NOT NULL,
            recorded_at REAL NOT NULL,
            values_json TEXT NOT NULL
        )
    """,
}

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_trials_dataset_framework"
    " ON trials (dataset, framework)",
    "CREATE INDEX IF NOT EXISTS idx_bench_name_time"
    " ON benchmark_runs (benchmark, recorded_at)",
)

#: ``trials`` columns that are *spec enrichments* — present only when the
#: publish carried a :class:`TrialSpec` (or timing metadata), ``NULL`` after
#: a blob-only rebuild.  Everything else is blob-derived.
SPEC_ENRICHMENT_COLUMNS = (
    "wall_seconds",
    "cache_version",
    "protocol",
    "pipeline_kwargs",
    "group_label",
)


def _canonical_json(value) -> str:
    """Stable JSON text of *value* (the spec hash's canonical encoding)."""
    return json.dumps(canonical_value(value), sort_keys=True, separators=(",", ":"))


def _final(records, attribute: str):
    """The last record's value of *attribute* (``None`` with no records)."""
    return getattr(records[-1], attribute) if records else None


class RunHistoryDB:
    """Queryable SQLite index over trial results (see module docstring).

    Parameters
    ----------
    location:
        The database file, or a directory to put one in
        (``<location>/results.sqlite3``) — the latter lets the cache
        directory itself name the index.  Parent directories are created
        lazily on first use.
    """

    #: Shared state the lock-discipline checker holds to `with self._lock:`
    #: (or the `_tx`/`_read` scopes, which take the lock themselves).
    _GUARDED_BY_LOCK = ("_conn",)
    _LOCK_CONTEXTS = ("_tx", "_read")

    def __init__(self, location: str | Path):
        location = Path(location)
        self.path = (
            location if location.suffix in _DB_SUFFIXES else location / DB_FILENAME
        )
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None

    # -- connection management --------------------------------------------

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
        """Close the connection (reopened lazily if the instance is reused)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        # One bounded write-lock hold per logical update (trial row + its
        # child rows commit together, so readers never see half a trial).
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")

    def _read(self, sql: str, params: Sequence = ()) -> list[sqlite3.Row]:
        # WAL readers never block on the writers' lock.
        with self._lock:
            return self._connect().execute(sql, params).fetchall()

    # -- writing ----------------------------------------------------------

    def index_trial(
        self,
        key: str,
        history: RunHistory,
        spec: TrialSpec | None = None,
        wall_seconds: float | None = None,
    ) -> None:
        """(Re-)materialise one trial's index rows from its history.

        Blob-derived columns come from *history*; the spec-enrichment
        columns are filled from *spec* / *wall_seconds* when given and left
        ``NULL`` otherwise (a blob-only rebuild cannot know them).  The
        trial row and its per-iteration child rows commit in one
        transaction.
        """
        records = history.records
        row = {
            "key": key,
            "framework": history.framework,
            "dataset": history.dataset,
            "seed": history.seed,
            "n_iterations": history.n_iterations,
            "n_evaluations": len(history.evaluation_points()),
            "average_accuracy": history.average_test_accuracy(),
            "final_accuracy": history.final_test_accuracy(),
            "label_coverage": _final(records, "label_coverage"),
            "label_accuracy": _final(records, "label_accuracy"),
            "n_lfs": _final(records, "n_lfs"),
            "n_selected_lfs": _final(records, "n_selected_lfs"),
            "lm_em_iterations": _final(records, "lm_em_iterations"),
            "lm_fits": _final(records, "lm_fits"),
            "lm_warm_fits": _final(records, "lm_warm_fits"),
            "al_fits": _final(records, "al_fits"),
            "al_warm_fits": _final(records, "al_warm_fits"),
            "glasso_fits": _final(records, "glasso_fits"),
            "glasso_warm_fits": _final(records, "glasso_warm_fits"),
            "lm_converged_fits": _final(records, "lm_converged_fits"),
            "lm_final_loss": _final(records, "lm_final_loss"),
            "glasso_sweeps": _final(records, "glasso_sweeps"),
            "wall_seconds": wall_seconds,
            "cache_version": CACHE_FORMAT_VERSION if spec is not None else None,
            "protocol": _canonical_json(spec.protocol) if spec is not None else None,
            "pipeline_kwargs": (
                _canonical_json(spec.pipeline_kwargs) if spec is not None else None
            ),
            "group_label": spec.group if spec is not None else None,
        }
        columns = ", ".join(row)
        marks = ", ".join("?" * len(row))
        with self._tx() as conn:
            conn.execute(
                f"INSERT OR REPLACE INTO trials ({columns}) VALUES ({marks})",
                tuple(row.values()),
            )
            conn.execute("DELETE FROM iterations WHERE key = ?", (key,))
            conn.executemany(
                "INSERT INTO iterations (key, iteration, query_index, lf_name,"
                " pseudo_label, n_lfs, n_selected_lfs, label_coverage,"
                " label_accuracy, test_accuracy)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        key,
                        record.iteration,
                        record.query_index,
                        record.lf_name,
                        record.pseudo_label,
                        record.n_lfs,
                        record.n_selected_lfs,
                        record.label_coverage,
                        record.label_accuracy,
                        record.test_accuracy,
                    )
                    for record in records
                ],
            )

    def clear_trials(self) -> int:
        """Drop every trial/iteration row (benchmark trajectory survives)."""
        with self._tx() as conn:
            removed = conn.execute("DELETE FROM trials").rowcount
            conn.execute("DELETE FROM iterations")
        return removed

    def reindex(self, store) -> int:
        """Rebuild the whole index by walking *store*'s blobs; returns rows built.

        The backfill path for pre-existing pickle-only caches and the
        recovery path after index/blob divergence (crash between blob write
        and index write): existing trial/iteration rows are dropped and
        every readable blob is re-materialised.  Spec-enrichment columns
        come out ``NULL`` — blobs do not carry specs — so a rebuilt index
        is identical to the incrementally built one on every blob-derived
        column.  Unreadable blobs are quarantined by ``store.get`` exactly
        as on the serving path.
        """
        self.clear_trials()
        rebuilt = 0
        root = Path(store.root)
        if not root.is_dir():
            return rebuilt
        for path in sorted(root.glob("*/*.pkl")):
            key = path.name[: -len(".pkl")]
            history = store.get(key)
            if history is None:
                continue  # quarantined (or raced a concurrent clear)
            self.index_trial(key, history)
            rebuilt += 1
        return rebuilt

    # -- querying ----------------------------------------------------------

    @staticmethod
    def _predicates(
        framework: str | None,
        dataset: str | None,
        seed: int | None,
        where: str | None,
    ) -> tuple[str, list]:
        conditions, params = [], []
        if framework is not None:
            conditions.append("framework = ?")
            params.append(framework)
        if dataset is not None:
            conditions.append("dataset = ?")
            params.append(dataset)
        if seed is not None:
            conditions.append("seed = ?")
            params.append(seed)
        if where:
            conditions.append(f"({where})")
        clause = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return clause, params

    def query(
        self,
        framework: str | None = None,
        dataset: str | None = None,
        seed: int | None = None,
        where: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Trial rows matching spec-field filters and metric predicates.

        *framework* / *dataset* / *seed* filter on the materialised spec
        fields; *where* is a raw SQL predicate over the ``trials`` columns
        (metric predicates like ``"final_accuracy < 0.8 AND lm_warm_fits =
        0"``, or spec predicates like ``"pipeline_kwargs LIKE
        '%glasso_alpha%'"``).  Rows come back as plain dicts,
        *without unpickling a single blob*.
        """
        clause, params = self._predicates(framework, dataset, seed, where)
        sql = f"SELECT * FROM trials{clause} ORDER BY dataset, framework, seed"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [dict(row) for row in self._read(sql, params)]

    def aggregate(
        self,
        metric: str = "average_accuracy",
        by: Sequence[str] = ("framework", "dataset"),
        framework: str | None = None,
        dataset: str | None = None,
        seed: int | None = None,
        where: str | None = None,
    ) -> list[dict]:
        """Cross-grid aggregation: mean/min/max/count of *metric* per group.

        *by* names the grouping columns (any ``trials`` columns — e.g.
        ``("framework",)`` for a cross-dataset view, ``("framework",
        "dataset")`` for per-cell aggregates); filters are as in
        :meth:`query`.  Each returned dict carries the group columns plus
        ``n_trials`` / ``mean`` / ``min`` / ``max``.  A name in *by* that is
        not a ``trials`` column raises :class:`ValueError`: the names are
        pasted into the SQL, so they are checked against the table first.
        """
        if metric not in TRIAL_METRICS:
            raise ValueError(f"metric must be one of {TRIAL_METRICS}, got {metric!r}")
        columns = [row["name"] for row in self._read("PRAGMA table_info(trials)")]
        if not by or not set(by) <= set(columns):
            raise ValueError(
                f"group-by columns must be trials columns {columns}, got {list(by)!r}"
            )
        group = ", ".join(by)
        clause, params = self._predicates(framework, dataset, seed, where)
        rows = self._read(
            f"SELECT {group}, COUNT(*) AS n_trials, AVG({metric}) AS mean,"
            f" MIN({metric}) AS min, MAX({metric}) AS max"
            f" FROM trials{clause} GROUP BY {group} ORDER BY mean DESC",
            params,
        )
        return [dict(row) for row in rows]

    def leaderboard(
        self,
        metric: str = "average_accuracy",
        by: Sequence[str] = ("framework",),
        limit: int | None = None,
        **filters,
    ) -> list[dict]:
        """Groups ranked by mean *metric*, best first (a top-N of :meth:`aggregate`).

        With the default ``by=("framework",)`` this is the cross-grid
        framework leaderboard; pass ``by=("framework", "dataset")`` for a
        per-cell one.  *filters* are forwarded to :meth:`aggregate`.
        """
        rows = self.aggregate(metric=metric, by=by, **filters)
        return rows if limit is None else rows[:limit]

    def has_key(self, key: str) -> bool:
        """Whether a trial row exists for *key* (a bound-parameter probe)."""
        return bool(self._read("SELECT 1 FROM trials WHERE key = ? LIMIT 1", (key,)))

    def iterations(self, key: str) -> list[dict]:
        """Per-iteration index rows of one trial, in iteration order."""
        return [
            dict(row)
            for row in self._read(
                "SELECT * FROM iterations WHERE key = ? ORDER BY iteration", (key,)
            )
        ]

    def counts(self) -> dict[str, int]:
        """``{"trials", "iterations", "benchmark_runs"}`` size snapshot."""
        return {
            table: self._read(f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
            for table in ("trials", "iterations", "benchmark_runs")
        }

    # -- the benchmark trajectory -----------------------------------------

    def record_benchmark(
        self, benchmark: str, values: dict, recorded_at: float | None = None
    ) -> int:
        """Append one timestamped benchmark headline row; returns its id.

        Unlike trial rows these are *append-only* — consecutive runs of one
        benchmark accumulate, which is what makes the per-PR trajectory
        visible (``BENCH_core.json`` only ever holds the latest numbers).
        """
        stamp = time.time() if recorded_at is None else float(recorded_at)
        with self._tx() as conn:
            cursor = conn.execute(
                "INSERT INTO benchmark_runs (benchmark, recorded_at, values_json)"
                " VALUES (?, ?, ?)",
                (benchmark, stamp, json.dumps(values, sort_keys=True)),
            )
            return int(cursor.lastrowid)

    def benchmark_trajectory(self, benchmark: str | None = None) -> list[dict]:
        """Benchmark headline rows, oldest first (optionally one benchmark's).

        Each dict carries ``benchmark``, ``recorded_at`` and the decoded
        ``values`` payload.
        """
        sql = "SELECT benchmark, recorded_at, values_json FROM benchmark_runs"
        params: tuple = ()
        if benchmark is not None:
            sql += " WHERE benchmark = ?"
            params = (benchmark,)
        sql += " ORDER BY recorded_at, id"
        return [
            {
                "benchmark": row["benchmark"],
                "recorded_at": row["recorded_at"],
                "values": json.loads(row["values_json"]),
            }
            for row in self._read(sql, params)
        ]
