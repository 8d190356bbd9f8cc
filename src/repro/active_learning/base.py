"""Sampler interface and shared query context.

A sampler picks the next query instance from the unlabeled pool.  The
:class:`QueryContext` gives every strategy a uniform view of the state of an
interactive run: pool features, the current predictions of the
active-learning model and of the label model (either may be missing early in
a run), which instances have already been queried, and a seeded RNG for
tie-breaking.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import ensure_rng


def prediction_entropy(proba: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Shannon entropy of each row of a probability matrix (Eq. 3 of the paper)."""
    proba = np.asarray(proba, dtype=float)
    if proba.ndim != 2:
        raise ValueError("proba must be 2-dimensional")
    clipped = np.clip(proba, eps, 1.0)
    return -np.sum(clipped * np.log(clipped), axis=1)


@dataclass
class QueryContext:
    """State handed to a sampler when choosing the next query.

    Attributes
    ----------
    dataset:
        The training-pool dataset (gives samplers access to raw instances,
        e.g. token sets for SEU).
    candidates:
        Indices of pool instances still eligible for querying.
    al_proba:
        ``(n_pool, C)`` probabilities from the active-learning model, or
        ``None`` if it has not been trained yet.
    lm_proba:
        ``(n_pool, C)`` probabilities from the label model, or ``None``.
    queried_indices:
        Pool indices already shown to the user, in query order.
    queried_labels:
        Pseudo-labels collected for the queried instances (``-1`` when the
        user's response produced no label).
    rng:
        Seeded generator for any randomised tie-breaking.
    """

    dataset: object
    candidates: np.ndarray
    al_proba: np.ndarray | None = None
    lm_proba: np.ndarray | None = None
    queried_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    queried_labels: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    rng: np.random.Generator = field(default_factory=ensure_rng)

    def __post_init__(self):
        self.candidates = np.asarray(self.candidates, dtype=int)
        if self.candidates.size == 0:
            raise ValueError("QueryContext requires at least one candidate")
        self.queried_indices = np.asarray(self.queried_indices, dtype=int)
        self.queried_labels = np.asarray(self.queried_labels, dtype=int)

    @property
    def features(self) -> np.ndarray:
        """Model-ready feature matrix of the pool."""
        return self.dataset.features

    @property
    def n_classes(self) -> int:
        """Number of classes in the task."""
        return self.dataset.n_classes


class BaseSampler(abc.ABC):
    """Query-selection strategy interface."""

    name: str = "base"

    @abc.abstractmethod
    def select(self, context: QueryContext) -> int:
        """Return the pool index of the next instance to show the user."""

    def _argmax_with_ties(self, scores: np.ndarray, candidates: np.ndarray,
                          rng: np.random.Generator) -> int:
        """Argmax over candidate scores with uniform random tie-breaking."""
        scores = np.asarray(scores, dtype=float)
        best = scores.max()
        ties = candidates[np.flatnonzero(np.isclose(scores, best))]
        return int(rng.choice(ties))
