"""Pluggable trial-result persistence behind one :class:`ResultStore` protocol.

The package holds:

* :mod:`~repro.runner.results.base` — the abstract :class:`ResultStore`
  protocol (get / put / keys_present / contains / len / clear + quarantine
  semantics);
* :mod:`~repro.runner.results.pickle_store` — the content-addressed
  pickle-shard blob store, the reference implementation;
* :mod:`~repro.runner.results.indexed` — any blob store wrapped with a
  WAL-mode SQLite run-history index (``results.sqlite3``);
* :mod:`~repro.runner.results.history_db` — :class:`RunHistoryDB`, the
  index schema and its first-class query API (spec-field filters, metric
  predicates, cross-grid aggregation, leaderboards, the benchmark
  trajectory).

Backends are selected by name through :func:`create_result_store` (the
string comes from ``ExecutionConfig.results``, the ``REPRO_RESULTS``
environment variable, or a ``--results`` flag); everything above the store —
the engine, the brokers' polling loop, the worker daemon — talks only to the
protocol.
"""

from __future__ import annotations

from pathlib import Path

from repro.runner.results.base import RESULT_STORE_BACKENDS, ResultStore
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
    "RESULT_STORE_BACKENDS",
    "ResultCache",
    "ResultStore",
    "RunHistoryDB",
    "TRIAL_METRICS",
    "atomic_write_bytes",
    "create_result_store",
]


def create_result_store(backend: str, root: str | Path) -> ResultStore:
    """Build a result-store backend by name over a shared *root* directory.

    *root* is the one path both backends understand: the pickle store uses
    the directory's key-prefix shards, the indexed store additionally keeps
    ``results.sqlite3`` inside it — so a submitter and its workers can all
    be pointed at the same ``--cache-dir`` regardless of backend (and a
    pickle-only cache can be adopted by the indexed store at any time via
    ``--reindex``).

    Raises :class:`ValueError` for an unknown *backend* name.
    """
    if backend == "pickle":
        return ResultCache(root)
    if backend == "indexed":
        return IndexedResultStore(root)
    raise ValueError(
        f"results backend must be one of {RESULT_STORE_BACKENDS}, got {backend!r}"
    )
