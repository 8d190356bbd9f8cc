"""Immutable trial descriptions and their content hashes.

A *trial* is the atomic unit of the experiment engine: one framework on one
dataset with one seed under one evaluation protocol.  :class:`TrialSpec`
freezes that description so trials can be hashed, deduplicated, shipped to
worker processes — pool workers on this machine, or pickled onto a spool
directory for :mod:`repro.runner.worker` daemons on other machines — and
used as content addresses for the on-disk result cache
(:mod:`repro.runner.results`).

The hash covers every input that determines the trial's outcome — framework,
dataset, seed, protocol parameters and pipeline keyword arguments (configs
are dataclasses and are canonicalised field by field) — plus a cache format
version so stale entries are ignored after incompatible changes.  Inputs
that cannot change the outcome are left out: ActiveDP ``config_overrides``
entries that restate a default (:func:`keyed_pipeline_kwargs`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ActiveDPConfig
from repro.datasets.registry import DATASET_PROFILES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # Only needed for annotations: importing repro.experiments at runtime
    # would close the cycle experiments -> runner.engine -> runner.spec and
    # make `import repro.runner` order-dependent (workers on spawn-start
    # platforms import it first).
    from repro.experiments.protocol import EvaluationProtocol

#: Bump when the trial execution semantics or RunHistory layout change in a
#: way that invalidates previously cached results.
#: 2: IterationRecord gained warm-refit counters; stale aggregation state is
#:    flushed at evaluation points (retrain_every > 1 results moved).
#: 3: adaptive early stopping became the default EM/glasso stopping rule
#:    (iteration counts and fitted parameters moved) and IterationRecord
#:    gained the lm_converged_fits / lm_final_loss / glasso_sweeps counters.
#: 4: RunHistory gained the ``artifacts`` payload (pipelines may export
#:    final labels/diagnostics/predictions) and the trial loop calls the
#:    pipelines' ``export_artifacts()`` hook after the last iteration.
#: 5: the graphical lasso's inner solver was replaced; it agrees with the
#:    old one on every selected Markov blanket, not bit for bit.
#: 6: each glasso column's lasso is solved by feature-sign search to an exact
#:    KKT point instead of to the coordinate-descent tolerance.
#: 7: label-model EM runs over distinct vote patterns weighted by their
#:    counts; ``lm_final_loss`` moves in its last bits.
CACHE_FORMAT_VERSION = 7


def canonical_value(obj):
    """Recursively convert *obj* into a JSON-serialisable canonical form.

    Dataclasses (configs, protocols) are expanded field by field with their
    type name, mappings are key-sorted, numpy scalars are unboxed and numpy
    arrays expand element-wise.  Anything else falls back to ``repr`` —
    except identity-based reprs (``<... object at 0x...>``), which are
    rejected: they differ across processes, so hashing them would produce
    unstable content keys (and truncated reprs would collide).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{
                f.name: canonical_value(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        canonical = {}
        for key, value in sorted(obj.items(), key=lambda item: str(item[0])):
            text = str(key)
            if text in canonical:
                # Silently merging would give two distinct specs one content
                # key — and serve one trial's cached result for the other.
                raise TypeError(
                    f"cannot content-hash dict: distinct keys stringify to {text!r}"
                )
            if text in ("__set__", "__type__"):
                # Reserved sentinels of the set/dataclass encodings: a dict
                # carrying them would collide with a genuine set/dataclass.
                raise TypeError(
                    f"cannot content-hash dict: key {text!r} is a reserved "
                    "canonical-encoding sentinel"
                )
            canonical[text] = canonical_value(value)
        return canonical
    if isinstance(obj, (list, tuple)):
        return [canonical_value(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        # Iteration (and repr) order is hash-randomised across processes;
        # sort by the canonical JSON encoding for a stable key.
        encoded = [canonical_value(value) for value in obj]
        encoded.sort(key=lambda value: json.dumps(value, sort_keys=True))
        return {"__set__": encoded}
    if isinstance(obj, np.ndarray):
        return [canonical_value(value) for value in obj.tolist()]
    if isinstance(obj, (np.integer, np.bool_)):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    text = repr(obj)
    if " at 0x" in text:
        raise TypeError(
            f"cannot content-hash a {type(obj).__name__}: its repr is "
            "identity-based and would differ across processes"
        )
    return text


def keyed_pipeline_kwargs(dataset: str, pipeline_kwargs: dict | None) -> dict | None:
    """*pipeline_kwargs* as the content key reads them.

    ``config_overrides`` entries equal to the value
    ``ActiveDPConfig.for_dataset_kind`` gives the dataset's kind are
    dropped, and so is the dict once empty (or ``None``), and empty kwargs
    read as ``None``: a grid row or a label request that restates a
    default names the trial it runs, not a second one.  The pipeline itself
    still receives the raw kwargs, which resolve to the same config.  An
    unregistered dataset's overrides are kept as given.
    """
    if not pipeline_kwargs:
        return None
    if "config_overrides" not in pipeline_kwargs:
        return pipeline_kwargs
    profile = DATASET_PROFILES.get(dataset.lower())
    overrides = pipeline_kwargs["config_overrides"]
    if profile is None or not (overrides is None or isinstance(overrides, dict)):
        return pipeline_kwargs
    defaults = dataclasses.asdict(ActiveDPConfig.for_dataset_kind(profile.kind))
    kept = {
        name: value
        for name, value in (overrides or {}).items()
        if name not in defaults or canonical_value(value) != canonical_value(defaults[name])
    }
    keyed = {name: value for name, value in pipeline_kwargs.items() if name != "config_overrides"}
    if kept:
        keyed["config_overrides"] = kept
    return keyed or None


def _digest_canonical(canonical) -> str:
    """SHA-256 hex digest of an already-canonicalised payload.

    Canonical forms must not pass through :func:`canonical_value` again:
    the reserved-sentinel guard would (correctly) reject their ``__type__``
    and ``__set__`` markers.
    """
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def digest(payload) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of *payload*."""
    return _digest_canonical(canonical_value(payload))


@dataclass(frozen=True)
class TrialSpec:
    """One framework x dataset x seed trial under an evaluation protocol.

    Attributes
    ----------
    framework:
        Registry name of the interactive pipeline (``"activedp"``, ...).
    dataset:
        Registry name of the benchmark dataset.
    seed:
        Per-trial seed; drives both dataset generation and the pipeline.
    protocol:
        The evaluation protocol (iterations, eval cadence, dataset scale...).
    pipeline_kwargs:
        Extra keyword arguments for the pipeline constructor (ablation
        configs, noise rates, ...).  ``None`` means none.
    group:
        Presentation label used by the engine to aggregate trials into one
        :class:`~repro.experiments.protocol.FrameworkResult`.  Excluded from
        the content hash so identical trials share cache entries across
        experiment drivers.
    """

    framework: str
    dataset: str
    seed: int
    protocol: EvaluationProtocol
    pipeline_kwargs: dict | None = None
    group: str | None = None

    def __post_init__(self):
        if not self.framework:
            raise ValueError("framework must be a non-empty name")
        if not self.dataset:
            raise ValueError("dataset must be a non-empty name")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @cached_property
    def key(self) -> str:
        """Content address of the trial (hex SHA-256).

        ``n_seeds`` and ``base_seed`` are excluded from the protocol
        projection: they decide *which* trials a grid expands to, not the
        outcome of this one, so growing a grid from 1 to 5 seeds keeps the
        shared trials' cache entries valid (``spawn_seeds`` is
        prefix-stable), and the kwargs are read through
        :func:`keyed_pipeline_kwargs`.
        """
        protocol = canonical_value(self.protocol)
        protocol.pop("n_seeds", None)
        protocol.pop("base_seed", None)
        return _digest_canonical(
            {
                "version": CACHE_FORMAT_VERSION,
                "framework": self.framework,
                "dataset": self.dataset,
                "seed": self.seed,
                "protocol": protocol,
                "pipeline_kwargs": canonical_value(
                    keyed_pipeline_kwargs(self.dataset, self.pipeline_kwargs)
                ),
            }
        )

    def __hash__(self) -> int:
        # The generated dataclass hash chokes on the kwargs dict; the content
        # key is the natural identity anyway.
        return hash(self.key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialSpec):
            return NotImplemented
        return self.key == other.key and self.group == other.group


def key_of(spec: TrialSpec | str) -> str:
    """Content key of a spec (or pass a raw key through).

    The spool broker and the result cache both accept either form, so a
    caller holding only a key (a failure log, a lease name) can address
    the same trial.
    """
    return spec.key if isinstance(spec, TrialSpec) else str(spec)
