"""Indexed result store: the pickle-shard blobs plus a queryable SQLite index.

The one result store the engine, the worker daemon and the labeling service
hold.  It wraps the pickle-shard :class:`ResultCache` and maintains a
:class:`~repro.runner.results.history_db.RunHistoryDB` alongside it —
``<root>/results.sqlite3``, so one shared directory carries the blobs and
the analytics index.

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
from typing import Iterable

from repro.core.results import RunHistory
from repro.runner.results.base import ResultStore
from repro.runner.results.history_db import DB_FILENAME, RunHistoryDB
from repro.runner.results.pickle_store import ResultCache
from repro.runner.spec import TrialSpec

__all__ = ["IndexedResultStore", "DB_FILENAME"]


class IndexedResultStore(ResultStore):
    """Blob store + run-history index behind the :class:`ResultStore` protocol.

    Parameters
    ----------
    root:
        Shared store directory: blobs live in the usual ``<key[:2]>/``
        shards (a :class:`ResultCache` at *root*), the index in
        ``results.sqlite3`` next to them.
    db_path:
        Index database override (a file path, or a directory to put
        ``results.sqlite3`` in); defaults to *root*.
    """

    def __init__(self, root: str | Path, db_path: str | Path | None = None):
        self.root = Path(root)
        self.blobs = ResultCache(self.root)
        self.db = RunHistoryDB(self.root if db_path is None else db_path)

    # -- blob operations (delegated; the blobs are the source of truth) ----

    def path_for(self, spec: TrialSpec | str) -> Path:
        """The blob path for a spec (or raw content key)."""
        return self.blobs.path_for(spec)

    def get(self, spec: TrialSpec | str) -> RunHistory | None:
        """The stored history, straight from the blob store.

        Reads never consult the index: it is derived state and may lag a
        concurrent writer (or be missing entirely until a reindex).
        """
        return self.blobs.get(spec)

    def keys_present(self, specs: Iterable[TrialSpec | str]) -> set[str]:
        """Which of *specs* have blobs on disk (the completion signal)."""
        return self.blobs.keys_present(specs)

    def __len__(self) -> int:
        return len(self.blobs)

    def n_quarantined(self) -> int:
        """Quarantined blobs in the wrapped store."""
        return self.blobs.n_quarantined()

    def clear(self) -> int:
        """Delete every blob (and quarantined blob) *and* their index rows.

        The benchmark trajectory table survives — it records runs, not
        cached state.  Returns the number of blob entries removed.
        """
        removed = self.blobs.clear()
        self.db.clear_trials()
        return removed

    # -- the indexing write path ------------------------------------------

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
        path = self.blobs.put(spec, history, wall_seconds=wall_seconds)
        try:
            self.db.index_trial(
                self.key_of(spec),
                history,
                spec=spec if isinstance(spec, TrialSpec) else None,
                wall_seconds=wall_seconds,
            )
        except sqlite3.Error as error:
            # Derived state only: never turn a landed result into a failed
            # put. The divergence is visible (index row missing) and
            # repairable (reindex), so a warning is the right loudness.
            print(
                f"[results] index write for {self.key_of(spec)[:12]}... failed "
                f"({error!r}); blob stored, run --reindex to backfill",
                file=sys.stderr,
            )
        return path

    def reindex(self) -> int:
        """Rebuild the index from the blobs (see :meth:`RunHistoryDB.reindex`)."""
        return self.db.reindex(self.blobs)
