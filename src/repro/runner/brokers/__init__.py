"""Pluggable trial-distribution backends behind one :class:`Broker` protocol.

The package holds:

* :mod:`~repro.runner.brokers.base` — the abstract :class:`Broker`
  protocol (enqueue / lease / heartbeat / complete / release / expire /
  fail / counts / stats) plus the generic submitter polling loop;
* :mod:`~repro.runner.brokers.spool` — the filesystem spool, the
  reference implementation (atomic renames over a shared directory);
* :mod:`~repro.runner.brokers.sqlite` — one WAL-mode SQLite file with
  transactional claims, for hosts where shared-filesystem rename
  contention is the bottleneck.

Backends are selected by name through :func:`create_broker` (the string
comes from ``ExecutionConfig.broker``, the ``REPRO_BROKER`` environment
variable, or a ``--broker`` flag); everything above the broker — the
engine, the worker daemon, the supervisor — talks only to the protocol.
"""

from __future__ import annotations

from pathlib import Path

from repro.runner.brokers.base import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL,
    Broker,
    LeasedTrial,
    RemoteTrialError,
    SpoolTimeout,
)
from repro.runner.brokers.spool import SpoolBroker, SpoolStats
from repro.runner.brokers.sqlite import SqliteBroker, SqliteLease, SqliteStats

__all__ = [
    "BROKER_BACKENDS",
    "Broker",
    "DEFAULT_CLAIM_BATCH",
    "DEFAULT_LEASE_TTL",
    "LeasedTrial",
    "RemoteTrialError",
    "SpoolBroker",
    "SpoolStats",
    "SpoolTimeout",
    "SqliteBroker",
    "SqliteLease",
    "SqliteStats",
    "create_broker",
]

#: Recognised ``broker=`` backend names, in preference order for docs and
#: validation messages.  ``"spool"`` is the default everywhere.
BROKER_BACKENDS = ("spool", "sqlite")


def create_broker(
    backend: str,
    location: str | Path,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> Broker:
    """Build a broker backend by name over a shared *location*.

    *location* is the one path both backends understand: the spool uses the
    directory itself, the SQLite backend puts ``broker.sqlite3`` inside it
    (or uses *location* directly when it already names a ``.sqlite3`` /
    ``.db`` file) — so a submitter, its workers and the supervisor can all
    be pointed at the same ``--spool`` path regardless of backend.

    Raises :class:`ValueError` for an unknown *backend* name; *lease_ttl*
    is validated by the backend constructors.
    """
    if backend == "spool":
        return SpoolBroker(location, lease_ttl=lease_ttl)
    if backend == "sqlite":
        return SqliteBroker(location, lease_ttl=lease_ttl)
    raise ValueError(
        f"broker backend must be one of {BROKER_BACKENDS}, got {backend!r}"
    )
