"""Common interface for interactive labelling frameworks.

The evaluation protocol (Section 4.1.3) treats every framework as a black
box that consumes one simulated-user interaction per iteration and, at any
point, can produce training labels for the downstream model.  This module
defines that contract; every checkpoint reads it through
:meth:`InteractivePipeline.evaluate`, the one evaluation of
:mod:`repro.core.evaluation` (TF-IDF / tabular features into logistic
regression, as in the paper).  :class:`LabelModelPipeline` is the shared
body of the label-model baselines (Nemo, IWS, Revising LF).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.evaluation import Evaluation, evaluate_labels
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.label_models.metal import MeTaLLabelModel
from repro.labeling.incremental import IncrementalLabelMatrix
from repro.labeling.lf import ABSTAIN, LabelFunction
from repro.simulation.simulated_user import SimulatedUser
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


class LabelModelPipeline(InteractivePipeline):
    """A baseline whose training labels are a MeTaL label model's over its LFs.

    Owns the simulated user (seeded by the pipeline's first draw), the LF
    list ``lfs`` with its column store ``train_matrix`` on ``train``, the one
    :meth:`refit` and the one label read :meth:`generate_labels`; subclasses
    decide which LFs join and when to refit.
    """

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        super().__init__(data_split, random_state)
        self.user = SimulatedUser(
            data_split.train, random_state=int(self.rng.integers(2**31 - 1))
        )
        self.lfs: list[LabelFunction] = []
        self.train_matrix = IncrementalLabelMatrix(data_split.train)
        self.label_model: MeTaLLabelModel | None = None
        self.lm_proba: np.ndarray | None = None

    def add_lf(self, lf: LabelFunction) -> None:
        """Append *lf* to ``lfs`` and its output to the column store."""
        self.lfs.append(lf)
        self.train_matrix.append(lf)

    def fit_matrix(self) -> np.ndarray:
        """The label matrix the label model is fitted on and read from."""
        return self.train_matrix.matrix

    def refit(self) -> None:
        """Fit a fresh label model on :meth:`fit_matrix` (``None`` without LFs)."""
        matrix = self.fit_matrix()
        if matrix.shape[1] == 0:
            self.label_model = self.lm_proba = None
            return
        self.label_model = MeTaLLabelModel(n_classes=self.n_classes)
        self.lm_proba = self.label_model.fit_predict_proba(matrix)

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-model hard labels on the LF-covered training instances."""
        if self.label_model is None:
            return np.array([], dtype=int), np.array([], dtype=int)
        matrix = self.fit_matrix()
        indices = np.flatnonzero(np.any(matrix != ABSTAIN, axis=1))
        proba = self.label_model.predict_proba(matrix[indices])
        return indices, np.argmax(proba, axis=1)
