"""The trial-distribution queue: :class:`SpoolBroker` and its lease types.

:mod:`~repro.runner.brokers.spool` holds the filesystem spool (atomic
renames over a shared directory), its operations and the contract its
callers rely on.  The engine, the worker daemon, the supervisor and the
labeling service each build a :class:`SpoolBroker` over the shared spool
directory.
"""

from __future__ import annotations

from repro.runner.brokers.spool import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL,
    LeasedTrial,
    PollRound,
    RemoteTrialError,
    SpoolBroker,
    SpoolStats,
    SpoolTimeout,
)

__all__ = [
    "DEFAULT_CLAIM_BATCH",
    "DEFAULT_LEASE_TTL",
    "LeasedTrial",
    "PollRound",
    "RemoteTrialError",
    "SpoolBroker",
    "SpoolStats",
    "SpoolTimeout",
]
