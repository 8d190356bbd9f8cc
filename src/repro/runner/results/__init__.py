"""Trial-result persistence behind one :class:`ResultStore` protocol.

The package holds:

* :mod:`~repro.runner.results.base` — the abstract :class:`ResultStore`
  protocol (get / put / keys_present / contains / len / clear + quarantine
  semantics);
* :mod:`~repro.runner.results.pickle_store` — the content-addressed
  pickle-shard blob store, the layer every read and write goes through;
* :mod:`~repro.runner.results.indexed` — the store every layer holds: the
  blob store plus a WAL-mode SQLite run-history index
  (``results.sqlite3``);
* :mod:`~repro.runner.results.history_db` — :class:`RunHistoryDB`, the
  index schema and its first-class query API (spec-field filters, metric
  predicates, cross-grid aggregation, leaderboards, the benchmark
  trajectory).

The engine (``ExecutionConfig.cache()``), the worker daemon and the
labeling service each hold one ``IndexedResultStore(cache_dir)``; the
brokers' polling loop talks only to the protocol.
"""

from __future__ import annotations

from repro.runner.results.base import ResultStore
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
    "ResultStore",
    "RunHistoryDB",
    "TRIAL_METRICS",
    "atomic_write_bytes",
]

