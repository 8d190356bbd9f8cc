"""Interactive labeling sessions: live ``TrainingState`` with LRU eviction.

A *session* is the interactive counterpart of a batch label request: the
client opens one against a dataset, then streams LFs in one at a time and
reads back labels/diagnostics after each — exactly the workflow the paper's
interactive loop simulates, but driven by a real user over HTTP.

Each session holds a live :class:`~repro.core.framework.ActiveDP` whose
mutable run state is a :class:`~repro.core.state.TrainingState` — and that
state is *designed* to be snapshotted.  The :class:`SessionManager` exploits
it for capacity management: when more sessions exist than ``max_live``, the
least-recently-used idle session is suspended to disk (``snapshot()`` →
pickle), and the next request against it transparently resumes — the
dataset is regenerated deterministically from the session's seed and the
state is restored, so an evicted-then-resumed session produces labels
identical to an uninterrupted one (the round-trip suite pins this at the
service boundary).

Concurrency: one request at a time per session (a session is one user's
mutable state, not a shared resource).  A second concurrent request gets
:class:`SessionBusyError` — HTTP 429 — instead of a lock queue.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import pickle
import threading
import uuid
from pathlib import Path

from repro.baselines.activedp import bind_activedp
from repro.baselines.lfset import export_labeling_artifacts, replay_lf
from repro.datasets import load_dataset
from repro.labeling.wire import lf_from_wire
from repro.runner.results import atomic_write_bytes
from repro.utils.rng import ensure_rng


class UnknownSessionError(KeyError):
    """No session with the given id exists (rendered as HTTP 404)."""


class SessionBusyError(RuntimeError):
    """The session is serving another request (rendered as HTTP 429)."""


class LabelingSession:
    """One user's live labeling run against one dataset.

    Parameters
    ----------
    session_id:
        Identifier the manager filed this session under.
    dataset:
        Dataset registry name; regenerated deterministically from *seed*
        and *scale*, which is what makes disk eviction cheap — only the
        run state is persisted, never the corpus.
    seed:
        Seed for dataset generation and the framework.
    scale:
        Dataset scale factor.
    config_overrides:
        Plain-JSON :class:`ActiveDPConfig` field overrides.
    end_model_C:
        Inverse regularisation of the end model in label payloads.
    """

    def __init__(
        self,
        session_id: str,
        dataset: str,
        seed: int = 0,
        scale: float = 1.0,
        config_overrides: dict | None = None,
        end_model_C: float = 1.0,
    ):
        self.session_id = session_id
        self.dataset = dataset
        self.seed = int(seed)
        self.scale = float(scale)
        self.config_overrides = dict(config_overrides) if config_overrides else None
        self.end_model_C = float(end_model_C)

        self.split = load_dataset(dataset, scale=self.scale, random_state=self.seed)
        self.framework = bind_activedp(
            self.split, ensure_rng(self.seed), self.config_overrides
        )

    @property
    def meta(self) -> dict:
        """Everything needed to rebuild this session's immutable parts."""
        return {
            "session_id": self.session_id,
            "dataset": self.dataset,
            "seed": self.seed,
            "scale": self.scale,
            "config_overrides": self.config_overrides,
            "end_model_C": self.end_model_C,
        }

    def add_lf(self, wire_lf: dict) -> dict:
        """Add one wire-schema LF and refit; returns the step diagnostics.

        The step is the LF-set replay's own (:func:`replay_lf`), so a
        duplicate LF is reported, not re-added.
        """
        lf = lf_from_wire(wire_lf)
        duplicate = replay_lf(self.framework, lf)
        state = self.framework.state
        return {
            "session": self.session_id,
            "lf_name": lf.name,
            "duplicate": duplicate,
            "n_lfs": len(state.lfs),
            "n_selected_lfs": len(state.selection.selected_indices),
            "threshold": state.threshold,
        }

    def label_payload(self) -> dict:
        """Current labels/diagnostics/predictions (the session's product).

        The artifact body is built by the same
        :func:`~repro.baselines.lfset.export_labeling_artifacts` the batch
        replay pipeline uses, so streaming N LFs and replaying the same N
        LFs report identical artifacts.
        """
        payload = export_labeling_artifacts(
            self.framework, self.split, end_model_C=self.end_model_C
        )
        payload["session"] = self.session_id
        payload["dataset"] = self.dataset
        payload["n_lfs"] = len(self.framework.lfs)
        return payload

    def info(self) -> dict:
        """Session metadata plus current LF count (the ``GET`` view)."""
        return {**self.meta, "n_lfs": len(self.framework.lfs)}

    # -- suspend/resume ----------------------------------------------------

    def suspended_payload(self) -> bytes:
        """Pickled ``{meta, state}`` — everything eviction persists."""
        return pickle.dumps({"meta": self.meta, "state": self.framework.snapshot()})

    @classmethod
    def resume(cls, payload: bytes) -> "LabelingSession":
        """Rebuild a session from :meth:`suspended_payload` bytes.

        The dataset is regenerated from the persisted seed/scale (fully
        deterministic) and the pickled :class:`TrainingState` — including
        its RNG — replaces the fresh one, so the resumed session continues
        exactly where the evicted one stopped.  The payload holds no
        dataset: both label matrices are bound to the regenerated split.
        """
        suspended = pickle.loads(payload)
        session = cls(**suspended["meta"])
        state = suspended["state"]
        state.train_matrix.bind(session.split.train)
        state.valid_matrix.bind(session.split.valid)
        session.framework.restore(state, copy=False)
        return session


@dataclasses.dataclass
class _SessionEntry:
    """Manager-internal record: the live session (or its eviction metadata)."""

    meta: dict
    session: LabelingSession | None
    lock: threading.Lock
    last_used: int


class SessionManager:
    """Track sessions, enforce per-session concurrency, evict LRU to disk.

    Parameters
    ----------
    session_dir:
        Directory suspended sessions are pickled into
        (``<id>.session.pkl``); created on first eviction.
    max_live:
        Maximum sessions held in memory; beyond it the least-recently-used
        idle session is suspended to disk.  Suspended sessions still count
        as *existing* — any request against them resumes transparently.
    """

    #: Shared state the lock-discipline checker holds to `with self._lock:`.
    _GUARDED_BY_LOCK = ("_entries", "_clock", "_created", "_evictions", "_resumes")

    def __init__(self, session_dir: str | Path, max_live: int = 8):
        if max_live < 1:
            raise ValueError("max_live must be at least 1")
        self.session_dir = Path(session_dir)
        self.max_live = int(max_live)
        self._lock = threading.Lock()
        self._entries: dict[str, _SessionEntry] = {}
        self._clock = itertools.count(1)
        self._created = 0
        self._evictions = 0
        self._resumes = 0

    # -- lifecycle ---------------------------------------------------------

    def create(
        self,
        dataset: str,
        seed: int = 0,
        scale: float = 1.0,
        config_overrides: dict | None = None,
        end_model_C: float = 1.0,
    ) -> dict:
        """Open a new session; returns its :meth:`LabelingSession.info` view."""
        session_id = uuid.uuid4().hex[:16]
        session = LabelingSession(
            session_id,
            dataset,
            seed=seed,
            scale=scale,
            config_overrides=config_overrides,
            end_model_C=end_model_C,
        )
        with self._lock:
            self._entries[session_id] = _SessionEntry(
                meta=session.meta,
                session=session,
                lock=threading.Lock(),
                last_used=next(self._clock),
            )
            self._created += 1
            self._evict_over_capacity()
        return session.info()

    @contextlib.contextmanager
    def acquire(self, session_id: str):
        """Exclusive access to one session, resuming it from disk if evicted.

        Raises :class:`UnknownSessionError` for ids that never existed (or
        were deleted) and :class:`SessionBusyError` when another request
        holds the session — the per-session concurrency limit is exactly
        one, surfaced as 429 rather than queued.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                raise UnknownSessionError(session_id)
            if not entry.lock.acquire(blocking=False):
                raise SessionBusyError(session_id)
        try:
            if entry.session is None:
                # Resume outside the manager lock: dataset regeneration is
                # the expensive part and must not serialise other sessions.
                entry.session = LabelingSession.resume(
                    self._suspension_path(session_id).read_bytes()
                )
                with self._lock:
                    self._resumes += 1
            with self._lock:
                entry.last_used = next(self._clock)
                self._evict_over_capacity()
            yield entry.session
        finally:
            entry.lock.release()

    def evict(self, session_id: str) -> dict:
        """Explicitly suspend one session to disk (idempotent).

        The suspend half of the suspend-resume contract, exposed as its own
        endpoint so clients (and the round-trip tests) can force the
        eviction path deterministically.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                raise UnknownSessionError(session_id)
            if not entry.lock.acquire(blocking=False):
                raise SessionBusyError(session_id)
            try:
                evicted = self._evict_entry(session_id, entry)
            finally:
                entry.lock.release()
        return {"session": session_id, "evicted": evicted}

    def delete(self, session_id: str) -> dict:
        """Close a session and remove any suspended payload on disk."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is None:
                raise UnknownSessionError(session_id)
            if not entry.lock.acquire(blocking=False):
                # Put it back: a request is mid-flight on this session.
                self._entries[session_id] = entry
                raise SessionBusyError(session_id)
            entry.lock.release()
        self._suspension_path(session_id).unlink(missing_ok=True)
        return {"session": session_id, "deleted": True}

    # -- introspection -----------------------------------------------------

    def list(self) -> list[dict]:
        """Every session's id, dataset and residency (live or suspended)."""
        with self._lock:
            return [
                {
                    "session": session_id,
                    "dataset": entry.meta["dataset"],
                    "live": entry.session is not None,
                }
                for session_id, entry in sorted(self._entries.items())
            ]

    def stats(self) -> dict:
        """Counter snapshot for ``/stats``."""
        with self._lock:
            live = sum(1 for entry in self._entries.values() if entry.session is not None)
            return {
                "sessions": len(self._entries),
                "live": live,
                "suspended": len(self._entries) - live,
                "max_live": self.max_live,
                "created": self._created,
                "evictions": self._evictions,
                "resumes": self._resumes,
            }

    def suspend_all(self) -> int:
        """Evict every idle live session (drain path); returns how many."""
        suspended = 0
        with self._lock:
            for session_id, entry in self._entries.items():
                if entry.session is None or not entry.lock.acquire(blocking=False):
                    continue
                try:
                    suspended += int(self._evict_entry(session_id, entry))
                finally:
                    entry.lock.release()
        return suspended

    # -- internals ---------------------------------------------------------

    def _suspension_path(self, session_id: str) -> Path:
        return self.session_dir / f"{session_id}.session.pkl"

    def _evict_entry(self, session_id: str, entry: _SessionEntry) -> bool:  # repro: locked
        # Caller holds both the manager lock and the entry lock.
        if entry.session is None:
            return False
        self.session_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            self._suspension_path(session_id), entry.session.suspended_payload()
        )
        entry.session = None
        self._evictions += 1
        return True

    def _evict_over_capacity(self) -> None:  # repro: locked
        # Caller holds the manager lock.  Oldest-first so the LRU session
        # pays the suspend; busy sessions (entry lock held) are skipped —
        # eviction never yanks state out from under a live request.
        live = [
            (entry.last_used, session_id, entry)
            for session_id, entry in self._entries.items()
            if entry.session is not None
        ]
        if len(live) <= self.max_live:
            return
        live.sort()
        excess = len(live) - self.max_live
        for _, session_id, entry in live:
            if excess <= 0:
                break
            if not entry.lock.acquire(blocking=False):
                continue
            try:
                if self._evict_entry(session_id, entry):
                    excess -= 1
            finally:
                entry.lock.release()
