"""The result-store protocol: the contract every persistence backend implements.

A *result store* is the persistence layer of the experiment engine: executed
trials are written through it keyed by their
:attr:`TrialSpec.key <repro.runner.spec.TrialSpec.key>` content address, and
every consumer — the engine's cache-first scheduler, the distributed
submitter's polling loop, the worker daemon — reads them back through the
same seam.  Two classes implement it, one wrapping the other:

* :class:`~repro.runner.results.pickle_store.ResultCache` — the
  pickle-shard blob layer (``<root>/<key[:2]>/<key>.pkl``);
* :class:`~repro.runner.results.indexed.IndexedResultStore` — the store
  every layer holds: that blob layer plus a WAL-mode SQLite index
  (``results.sqlite3``) materialising spec fields and headline metrics as
  queryable columns.

The protocol (blobs are always the source of truth):

=========================  ==================================================
``get(spec)``              the stored history, or ``None`` on a miss
``put(spec, history)``     atomically store a history under the content key
``keys_present(specs)``    which of many keys have entries (snapshot, cheap)
``path_for(spec)``         the blob path a key resolves to
``__contains__``           single-key presence probe
``__len__``                number of stored entries
``n_quarantined()``        quarantined (``*.pkl.corrupt``) blobs on disk
``clear()``                delete every entry *and* every quarantined blob
=========================  ==================================================

Shared semantics both must honour (the contract suite in
``tests/runner/test_result_store_contract.py`` runs identically against
each):

* **content addressing** — one entry per content key; a re-``put`` of the
  same key atomically replaces the previous bytes;
* **quarantine on read** — an unreadable or wrong-typed entry is a miss,
  and is moved aside (never silently deleted) so the recompute can land;
* **byte-identity** — the index never touches the blob bytes: an indexed
  ``put`` and a plain blob ``put`` of the same trial produce identical
  blobs (the index is derived state, eventually consistent and rebuildable
  from the blobs).
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Iterable

from repro.core.results import RunHistory
from repro.runner.spec import TrialSpec

class ResultStore(abc.ABC):
    """Abstract content-addressed persistence for trial :class:`RunHistory`\\ s.

    Subclasses implement blob storage (and optionally derived indexes); the
    engine, the brokers' polling loop and the worker daemon depend only on
    this interface.

    Attributes every backend exposes:

    ``root``
        The directory the store persists under (shown in worker logs and
        timeout diagnostics; the one path submitters and workers share).
    """

    root: Path

    @staticmethod
    def key_of(spec: TrialSpec | str) -> str:
        """Content key of a spec (or pass a raw key through)."""
        return spec.key if isinstance(spec, TrialSpec) else str(spec)

    @abc.abstractmethod
    def path_for(self, spec: TrialSpec | str) -> Path:
        """The blob path for a spec (or a raw content key)."""

    @abc.abstractmethod
    def get(self, spec: TrialSpec | str) -> RunHistory | None:
        """Return the stored history, or ``None`` on a miss.

        An unreadable or wrong-typed entry is quarantined (moved aside,
        reported by :meth:`n_quarantined`) before reporting the miss, so
        the caller's recompute can actually land.
        """

    @abc.abstractmethod
    def put(
        self,
        spec: TrialSpec | str,
        history: RunHistory,
        wall_seconds: float | None = None,
    ) -> Path:
        """Atomically store *history* under the spec's content key.

        *wall_seconds* is optional execution-time metadata: backends with a
        metrics index record it, blob-only backends ignore it — it never
        affects the stored blob bytes.  Returns the blob path written.
        """

    @abc.abstractmethod
    def keys_present(self, specs: Iterable[TrialSpec | str]) -> set[str]:
        """Which of *specs* (specs or raw keys) have entries on disk.

        Must cost a bounded number of listings/queries per call — never a
        ``stat`` per key — so a polling submitter can watch thousands of
        pending trials without stat-storming a shared backend.
        """

    @abc.abstractmethod
    def n_quarantined(self) -> int:
        """Number of quarantined (corrupt, moved-aside) blobs on disk."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every entry *and* every quarantined blob; returns entries removed.

        Quarantined blobs do not count toward the return value (they were
        never servable entries), but they are removed — long-lived shared
        stores must not accumulate dead blobs forever.
        """

    def __contains__(self, spec: TrialSpec | str) -> bool:
        """Whether an entry for the spec's content key exists."""
        return self.path_for(spec).exists()

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries (quarantined blobs excluded)."""
