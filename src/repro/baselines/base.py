"""Common interface for interactive labelling frameworks.

The evaluation protocol (Section 4.1.3) treats every framework as a black
box that consumes one simulated-user interaction per iteration and, at any
point, can produce training labels for the downstream model.  This module
defines that contract; every checkpoint reads it through
:meth:`InteractivePipeline.evaluate`, the one evaluation of
:mod:`repro.core.evaluation` (TF-IDF / tabular features into logistic
regression, as in the paper).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.evaluation import Evaluation, evaluate_labels
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.utils.rng import RandomState, ensure_rng


class InteractivePipeline(abc.ABC):
    """One interactive data-labelling framework bound to one dataset split.

    Parameters
    ----------
    data_split:
        The benchmark dataset (train/valid/test).
    random_state:
        Seed or generator shared by the framework's stochastic components.
    """

    name: str = "pipeline"

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        self.data = data_split
        self.rng = ensure_rng(random_state)
        self.n_classes = data_split.n_classes
        self.iteration = 0

    # ------------------------------------------------------------- interface
    @abc.abstractmethod
    def step(self) -> IterationRecord | None:
        """Consume one simulated-user interaction (one unit of labelling budget).

        Pipelines that introspect their iteration return an
        :class:`~repro.core.results.IterationRecord` (query index, LF name,
        pseudo-label, ...) which the evaluation protocol propagates into the
        run history; returning ``None`` makes the harness record a bare row.
        """

    @abc.abstractmethod
    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(train_indices, hard_labels)`` for downstream training."""

    def run(self, n_iterations: int) -> None:
        """Run *n_iterations* consecutive interactions."""
        for _ in range(n_iterations):
            self.step()

    def export_artifacts(self) -> dict | None:
        """Final outputs to persist on the trial's ``RunHistory.artifacts``.

        Called once by the trial loop after the last iteration.  Pipelines
        whose product is more than the metric curve (e.g. the aggregated
        labels a serving request asked for) return a plain JSON-able dict
        here; the default exports nothing.
        """
        return None

    # ------------------------------------------------- downstream evaluation
    def evaluate(self, C: float = 1.0) -> Evaluation:
        """One checkpoint: end-model test accuracy, label coverage and accuracy.

        Calls :meth:`generate_labels` once and reads all three numbers off
        those labels (the end model has inverse regularisation *C*).
        """
        indices, labels = self.generate_labels()
        return evaluate_labels(self.data, indices, labels, C=C)
