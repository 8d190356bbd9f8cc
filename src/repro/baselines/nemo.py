"""Nemo baseline: interactive data programming with SEU instance selection.

Nemo [Hsieh et al. 2022] guides LF development by actively choosing which
instance to show the user (Select-by-Expected-Utility) and then trains a
label model on *all* user-returned LFs; the downstream model is trained on
the label model's outputs over the covered instances.  Unlike ActiveDP it
neither trains an instance-level AL model nor selects a subset of LFs, which
is exactly the behaviour the paper contrasts against.

The paper only evaluates Nemo on the six textual datasets (its SEU strategy
is designed for text); on tabular data this implementation degrades SEU to
uncertainty over the label model, but the experiment harness follows the
paper and skips Nemo for tabular datasets.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning.base import QueryContext
from repro.active_learning.seu import SEUSampler
from repro.baselines.base import InteractivePipeline
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.labeling.lf import ABSTAIN, LabelFunction
from repro.label_models import get_label_model
from repro.simulation.simulated_user import SimulatedUser
from repro.utils.rng import RandomState


class NemoPipeline(InteractivePipeline):
    """SEU-guided interactive LF development with a label model.

    Parameters
    ----------
    data_split, random_state:
        See :class:`InteractivePipeline`.
    label_model:
        Label-model registry name (paper: MeTaL).
    accuracy_threshold:
        Candidate-LF accuracy threshold of the simulated user.
    """

    name = "nemo"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        label_model: str = "metal",
        accuracy_threshold: float = 0.6,
    ):
        super().__init__(data_split, random_state)
        self.sampler = SEUSampler()
        self.user = SimulatedUser(
            data_split.train,
            accuracy_threshold=accuracy_threshold,
            random_state=int(self.rng.integers(2**31 - 1)),
        )
        self.label_model_name = label_model
        self.lfs: list[LabelFunction] = []
        self.queried: list[int] = []
        self.label_model = None
        self._train_matrix = np.empty((len(data_split.train), 0), dtype=int)
        self._lm_proba: np.ndarray | None = None

    def step(self):
        """Select a query with SEU, collect an LF and retrain the label model."""
        candidates = np.setdiff1d(
            np.arange(len(self.data.train)), np.asarray(self.queried, dtype=int)
        )
        if candidates.size == 0:
            return
        context = QueryContext(
            dataset=self.data.train,
            candidates=candidates,
            lm_proba=self._lm_proba,
            queried_indices=np.asarray(self.queried, dtype=int),
            queried_labels=np.full(len(self.queried), ABSTAIN, dtype=int),
            iteration=self.iteration,
            rng=self.rng,
        )
        query = self.sampler.select(context)
        self.queried.append(query)

        lf = self.user.design_lf(query)
        if lf is not None and lf not in self.lfs:
            self.lfs.append(lf)
            column = lf.apply(self.data.train).reshape(-1, 1)
            self._train_matrix = np.hstack([self._train_matrix, column])
            self._retrain()
        record = IterationRecord(
            iteration=self.iteration,
            query_index=int(query),
            lf_name=lf.name if lf is not None else None,
            n_lfs=len(self.lfs),
        )
        self.iteration += 1
        return record

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-model hard labels on the LF-covered training instances."""
        if self._train_matrix.shape[1] == 0 or self.label_model is None:
            return np.array([], dtype=int), np.array([], dtype=int)
        covered = np.any(self._train_matrix != ABSTAIN, axis=1)
        indices = np.flatnonzero(covered)
        proba = self.label_model.predict_proba(self._train_matrix[indices])
        return indices, np.argmax(proba, axis=1)

    def _retrain(self) -> None:
        self.label_model = get_label_model(self.label_model_name, n_classes=self.n_classes)
        self._lm_proba = self.label_model.fit_predict_proba(self._train_matrix)
