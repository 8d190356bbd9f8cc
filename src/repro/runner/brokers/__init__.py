"""The trial-distribution queue: the :class:`Broker` contract and the spool.

The package holds:

* :mod:`~repro.runner.brokers.base` — the abstract :class:`Broker`
  contract (enqueue / lease / heartbeat / complete / release / expire /
  fail / counts / stats) plus the generic submitter polling loop;
* :mod:`~repro.runner.brokers.spool` — the filesystem spool, its one
  implementation (atomic renames over a shared directory).

The engine, the worker daemon, the supervisor and the labeling service
each build a :class:`SpoolBroker` over the shared spool directory and talk
to it only through the contract.
"""

from __future__ import annotations

from repro.runner.brokers.base import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL,
    Broker,
    LeasedTrial,
    RemoteTrialError,
    SpoolTimeout,
)
from repro.runner.brokers.spool import SpoolBroker, SpoolStats

__all__ = [
    "Broker",
    "DEFAULT_CLAIM_BATCH",
    "DEFAULT_LEASE_TTL",
    "LeasedTrial",
    "RemoteTrialError",
    "SpoolBroker",
    "SpoolStats",
    "SpoolTimeout",
]
