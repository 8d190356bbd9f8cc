"""Indexed result store: the pickle-shard blobs plus a queryable SQLite index.

The one result store the engine, the worker daemon and the labeling service
hold.  It is the pickle-shard :class:`ResultCache` with a
:class:`~repro.runner.results.history_db.RunHistoryDB` maintained alongside
it — ``<root>/results.sqlite3``, so one shared directory carries the blobs
and the analytics index.  Reads, presence probes and counts are the blob
store's own: the index is never consulted to answer them.

The ordering contract that keeps distributed runs correct:

* **blobs first** — :meth:`put` writes the blob, then the index row.  The
  blob write is what completes a trial (the submitter's polling loop and
  the ``__contains__`` probes all watch the blobs), so a crash between the
  two writes loses only an index row — never a result;
* **index failures are soft** — an index write that fails (locked file,
  disk pressure on the database but not the shards) must not fail the
  ``put``: the blob already landed, and :meth:`RunHistoryDB.reindex
  <repro.runner.results.history_db.RunHistoryDB.reindex>` (or ``python -m
  repro.runner.query --reindex``) rebuilds the rows later;
* **byte-identity** — the index never touches the blob bytes: a grid run
  through this store produces blobs byte-identical to a plain
  :class:`ResultCache` run.
"""

from __future__ import annotations

import sqlite3
import sys
from pathlib import Path

from repro.core.results import RunHistory
from repro.runner.results.history_db import DB_FILENAME, RunHistoryDB
from repro.runner.results.pickle_store import ResultCache
from repro.runner.spec import TrialSpec, key_of

__all__ = ["IndexedResultStore", "DB_FILENAME"]


class IndexedResultStore(ResultCache):
    """Blob store + run-history index: :class:`ResultCache` that indexes its puts.

    Parameters
    ----------
    root:
        Shared store directory: blobs live in the usual ``<key[:2]>/``
        shards, the index in ``results.sqlite3`` next to them.
    """

    def __init__(self, root: str | Path):
        super().__init__(root)
        self.db = RunHistoryDB(self.root)

    def clear(self) -> int:
        """Delete every blob (and quarantined blob) *and* their index rows.

        Returns the number of blob entries removed.
        """
        removed = super().clear()
        self.db.clear_trials()
        return removed

    def put(
        self,
        spec: TrialSpec | str,
        history: RunHistory,
        wall_seconds: float | None = None,
    ) -> Path:
        """Store the blob, then materialise its index rows (blob bytes first).

        When *spec* is a :class:`TrialSpec` the row carries the spec
        enrichments (protocol, config overrides, cache format version);
        a raw key indexes the blob-derived columns only.  An index write
        failure is swallowed (the blob already landed and completes the
        trial; ``--reindex`` recovers the row), so this method fails only
        when the *blob* cannot be written.
        """
        path = super().put(spec, history, wall_seconds=wall_seconds)
        try:
            self.db.index_trial(
                key_of(spec),
                history,
                spec=spec if isinstance(spec, TrialSpec) else None,
                wall_seconds=wall_seconds,
            )
        except sqlite3.Error as error:
            # Derived state only: never turn a landed result into a failed
            # put. The divergence is visible (index row missing) and
            # repairable (reindex), so a warning is the right loudness.
            print(
                f"[results] index write for {key_of(spec)[:12]}... failed "
                f"({error!r}); blob stored, run --reindex to backfill",
                file=sys.stderr,
            )
        return path

    def reindex(self) -> int:
        """Rebuild the index from the blobs (see :meth:`RunHistoryDB.reindex`)."""
        return self.db.reindex(self)
