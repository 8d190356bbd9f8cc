"""Trial-result persistence: content-addressed blobs plus a run-history index.

The package holds:

* :mod:`~repro.runner.results.pickle_store` — :class:`ResultCache`, the
  content-addressed pickle-shard blob store every read and write goes
  through;
* :mod:`~repro.runner.results.indexed` — :class:`IndexedResultStore`, the
  store every layer holds: a :class:`ResultCache` that also writes each
  put into a WAL-mode SQLite run-history index (``results.sqlite3``);
* :mod:`~repro.runner.results.history_db` — :class:`RunHistoryDB`, the
  index schema and its first-class query API (spec-field filters, metric
  predicates, cross-grid aggregation, leaderboards, the benchmark
  trajectory).

The engine (``ExecutionConfig.cache()``), the worker daemon and the
labeling service each hold one ``IndexedResultStore(cache_dir)``.
"""

from __future__ import annotations

from repro.runner.results.history_db import (
    DB_FILENAME,
    TRIAL_METRICS,
    RunHistoryDB,
)
from repro.runner.results.indexed import IndexedResultStore
from repro.runner.results.pickle_store import ResultCache, atomic_write_bytes

__all__ = [
    "DB_FILENAME",
    "IndexedResultStore",
    "ResultCache",
    "RunHistoryDB",
    "TRIAL_METRICS",
    "atomic_write_bytes",
]
