"""Content-addressed pickle-shard blob store: the blob layer of the result store.

Layout: ``<root>/<first two hex chars>/<full key>.pkl``, one pickled
:class:`~repro.core.results.RunHistory` per trial, keyed by
:attr:`TrialSpec.key <repro.runner.spec.TrialSpec.key>`.  Because the key
covers every input that determines the trial outcome, re-running a grid only
executes trials whose spec changed; everything else is served from disk.

The semantics every reader relies on
(``tests/runner/test_result_store_contract.py`` pins them on this class and
on :class:`~repro.runner.results.indexed.IndexedResultStore`, its
subclass):

* **content addressing** — one entry per content key; a re-``put`` of the
  same key atomically replaces the previous bytes (tempfile +
  ``os.replace``), so concurrent grid runs and interrupted processes never
  leave half-written entries;
* **quarantine on read** — an unreadable or wrong-typed entry is a miss,
  and is moved aside (never silently deleted) so the recompute can land;
* **cheap snapshots** — :meth:`ResultCache.keys_present` costs a bounded
  number of listings per call, never a ``stat`` per key, so a polling
  submitter can watch thousands of pending trials.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable

from repro.core.results import RunHistory
from repro.runner.spec import TrialSpec, key_of


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write *data* to *path* so readers see the old bytes or the new, never a mix.

    Tempfile in the destination directory (``os.replace`` across
    filesystems is copy+delete, not atomic) then rename over the target;
    the temp file is removed on any failure.  Shared by the cache and the
    spool broker so durability fixes land in one place.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Pickle-per-trial cache rooted at *root* (created lazily on first put)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, spec: TrialSpec | str) -> Path:
        """Cache file path for a spec (or a raw content key)."""
        key = key_of(spec)
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, spec: TrialSpec | str) -> RunHistory | None:
        """Return the cached history, or ``None`` on a miss or unreadable entry.

        An unreadable or wrong-typed entry is quarantined (renamed to
        ``<entry>.pkl.corrupt``) before reporting the miss, so the caller's
        recompute can actually land: with multiple writers sharing a cache
        directory, leaving the corrupt file in place would turn every
        subsequent ``__contains__`` probe into a false positive while
        ``get`` keeps failing.
        """
        path = self.path_for(spec)
        try:
            with open(path, "rb") as handle:
                history = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Unpickling garbage raises a zoo of exception types
            # (UnpicklingError, ValueError, EOFError, AttributeError, ...);
            # any unreadable entry is a miss and is moved aside for
            # post-mortems instead of being silently overwritten.
            self._quarantine(path)
            return None
        if not isinstance(history, RunHistory):
            self._quarantine(path)
            return None
        return history

    @staticmethod
    def _quarantine(path: Path) -> None:
        # os.replace keeps this race-safe against a concurrent put(): the
        # writer's rename and ours target different names, so whichever
        # lands last, the .pkl slot ends up either absent or freshly valid.
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    def put(
        self,
        spec: TrialSpec | str,
        history: RunHistory,
        wall_seconds: float | None = None,
    ) -> Path:
        """Atomically store *history* under the spec's content key.

        *wall_seconds* is execution-time metadata that never reaches the
        blob bytes: this class ignores it, and
        :class:`~repro.runner.results.indexed.IndexedResultStore` records
        it in its index row.  Returns the blob path written.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, pickle.dumps(history, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def keys_present(self, specs: Iterable[TrialSpec | str]) -> set[str]:
        """Which of *specs* (specs or raw keys) have entries on disk.

        One directory listing per distinct key-prefix shard instead of one
        ``stat`` per key: this is what lets a polling submitter
        (:meth:`SpoolBroker.wait <repro.runner.brokers.spool.SpoolBroker.wait>`)
        watch thousands of pending trials without stat-storming a shared
        fileserver on every backoff round.  Entries appearing concurrently
        with the listing may be missed; the caller's next round sees them.
        """
        wanted = {key_of(spec) for spec in specs}
        if len(wanted) <= 32:
            # For a handful of keys, a stat each beats listing whole
            # prefix directories: a long-lived shared cache can hold
            # hundreds of entries per prefix, and the snapshot only pays
            # off when the pending set is large.
            return {key for key in wanted if self.path_for(key).exists()}
        present: set[str] = set()
        for prefix in {key[:2] for key in wanted}:
            try:
                names = os.listdir(self.root / prefix)
            except OSError:
                continue  # shard not created yet: nothing cached there
            for name in names:
                if name.endswith(".pkl") and name[:-4] in wanted:
                    present.add(name[:-4])
        return present

    def __contains__(self, spec: TrialSpec | str) -> bool:
        """Whether an entry for the spec's content key exists."""
        return self.path_for(spec).exists()

    def __len__(self) -> int:
        """Number of stored entries (quarantined blobs excluded)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def n_quarantined(self) -> int:
        """Quarantined (``*.pkl.corrupt``) blobs currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl.corrupt"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number of entries removed.

        Quarantined ``*.pkl.corrupt`` blobs are removed too (they exist for
        post-mortems, and a clear *is* the post-mortem boundary — leaving
        them would let a long-lived shared cache accumulate dead blobs
        forever), but they do not count toward the return value.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*/*.pkl.corrupt"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed
