"""Revising LF baseline (Nashaat et al. 2018).

Revising LF iteratively selects the instance on which the current label
model is most uncertain, asks the user for its true label, and *corrects the
LF outputs* on that instance (every activated LF's vote is overwritten with
the correct label).  The label model is then retrained on the revised label
matrix.

The method requires a pre-specified LF set, which the other frameworks do
not need; following the paper's protocol, the LF set used at iteration *t*
is the same LF set an ActiveDP-style simulated user would have produced
after *t* queries (Section 4.1.3).  Each iteration therefore both (a) grows
the LF set by one simulated-user LF and (b) spends the iteration's manual
label on revising the most uncertain instance.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning.base import prediction_entropy
from repro.baselines.base import InteractivePipeline
from repro.datasets.base import DataSplit
from repro.labeling.lf import ABSTAIN, LabelFunction
from repro.label_models import get_label_model
from repro.simulation.oracle import Oracle
from repro.simulation.simulated_user import SimulatedUser
from repro.utils.rng import RandomState


class RevisingLFPipeline(InteractivePipeline):
    """Uncertainty-driven LF-output revision with a growing LF set.

    Parameters
    ----------
    data_split, random_state:
        See :class:`InteractivePipeline`.
    label_model:
        Label-model registry name.
    accuracy_threshold:
        Candidate-LF accuracy threshold of the simulated user that produces
        the input LF set.
    """

    name = "revising_lf"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        label_model: str = "metal",
        accuracy_threshold: float = 0.6,
    ):
        super().__init__(data_split, random_state)
        self.user = SimulatedUser(
            data_split.train,
            accuracy_threshold=accuracy_threshold,
            random_state=int(self.rng.integers(2**31 - 1)),
        )
        self.oracle = Oracle(
            data_split.train, random_state=int(self.rng.integers(2**31 - 1))
        )
        self.label_model_name = label_model
        self.lfs: list[LabelFunction] = []
        self.lf_queried: list[int] = []
        self.revised: dict[int, int] = {}
        self.label_model = None
        self._matrix = np.empty((len(data_split.train), 0), dtype=int)
        self._lm_proba: np.ndarray | None = None

    def step(self) -> None:
        """Grow the LF set by one LF and revise the most uncertain instance."""
        self._grow_lf_set()
        self._revise_most_uncertain()
        self._retrain()
        self.iteration += 1

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-model labels on covered instances, with revised instances pinned."""
        if self._matrix.shape[1] == 0 or self.label_model is None:
            if not self.revised:
                return np.array([], dtype=int), np.array([], dtype=int)
            indices = np.array(sorted(self.revised), dtype=int)
            return indices, np.array([self.revised[i] for i in indices], dtype=int)

        covered = np.any(self._matrix != ABSTAIN, axis=1)
        indices = np.flatnonzero(covered)
        proba = self.label_model.predict_proba(self._matrix[indices])
        labels = np.argmax(proba, axis=1)
        # Queried instances keep their manually provided labels.
        label_map = dict(zip(indices.tolist(), labels.tolist()))
        label_map.update(self.revised)
        all_indices = np.array(sorted(label_map), dtype=int)
        return all_indices, np.array([label_map[i] for i in all_indices], dtype=int)

    # ------------------------------------------------------------- internals
    def _grow_lf_set(self) -> None:
        """Add one simulated-user LF (mirrors the ActiveDP LF-creation protocol)."""
        candidates = np.setdiff1d(
            np.arange(len(self.data.train)), np.asarray(self.lf_queried, dtype=int)
        )
        if candidates.size == 0:
            return
        query = int(self.rng.choice(candidates))
        self.lf_queried.append(query)
        lf = self.user.design_lf(query)
        if lf is None or lf in self.lfs:
            return
        self.lfs.append(lf)
        column = lf.apply(self.data.train).reshape(-1, 1)
        self._matrix = np.hstack([self._matrix, column])
        # Re-apply earlier revisions to the new column.
        for index, label in self.revised.items():
            if self._matrix[index, -1] != ABSTAIN:
                self._matrix[index, -1] = label

    def _revise_most_uncertain(self) -> None:
        """Query the label-model-most-uncertain instance and fix LF outputs on it."""
        unrevised = np.setdiff1d(
            np.arange(len(self.data.train)), np.array(sorted(self.revised), dtype=int)
        )
        if unrevised.size == 0:
            return
        if self._lm_proba is not None:
            entropy = prediction_entropy(self._lm_proba[unrevised])
            target = int(unrevised[int(np.argmax(entropy))])
        else:
            target = int(self.rng.choice(unrevised))
        true_label = self.oracle.label(target)
        self.revised[target] = true_label
        if self._matrix.shape[1]:
            fired = self._matrix[target] != ABSTAIN
            self._matrix[target, fired] = true_label

    def _retrain(self) -> None:
        if self._matrix.shape[1] == 0:
            self.label_model = None
            self._lm_proba = None
            return
        self.label_model = get_label_model(self.label_model_name, n_classes=self.n_classes)
        self._lm_proba = self.label_model.fit_predict_proba(self._matrix)
