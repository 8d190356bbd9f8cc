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
from repro.baselines.base import LabelModelPipeline
from repro.datasets.base import DataSplit
from repro.labeling.lf import ABSTAIN
from repro.simulation.oracle import Oracle
from repro.utils.rng import RandomState


class RevisingLFPipeline(LabelModelPipeline):
    """Uncertainty-driven LF-output revision with a growing LF set.

    ``revised`` maps each queried instance to its oracle label; the label
    model is fitted on the column store with every fired vote on a revised
    instance set to that label (:meth:`fit_matrix`).
    """

    name = "revising_lf"

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        super().__init__(data_split, random_state)
        self.oracle = Oracle(
            data_split.train, random_state=int(self.rng.integers(2**31 - 1))
        )
        self.lf_queried: list[int] = []
        self.revised: dict[int, int] = {}

    def step(self) -> None:
        """Grow the LF set by one LF and revise the most uncertain instance."""
        self._grow_lf_set()
        self._revise_most_uncertain()
        self.refit()
        self.iteration += 1

    def fit_matrix(self) -> np.ndarray:
        """The column store with the revised instances' fired votes overwritten."""
        matrix = self.train_matrix.matrix.copy()
        rows = np.fromiter(self.revised, dtype=int, count=len(self.revised))
        labels = np.fromiter(self.revised.values(), dtype=int, count=len(self.revised))
        votes = matrix[rows]
        matrix[rows] = np.where(votes != ABSTAIN, labels[:, None], votes)
        return matrix

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-model labels on covered instances, with revised instances pinned."""
        indices, labels = super().generate_labels()
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
        if lf is not None and lf not in self.lfs:
            self.add_lf(lf)

    def _revise_most_uncertain(self) -> None:
        """Query the label-model-most-uncertain instance and record its true label."""
        unrevised = np.setdiff1d(
            np.arange(len(self.data.train)), np.array(sorted(self.revised), dtype=int)
        )
        if unrevised.size == 0:
            return
        if self.lm_proba is not None:
            entropy = prediction_entropy(self.lm_proba[unrevised])
            target = int(unrevised[int(np.argmax(entropy))])
        else:
            target = int(self.rng.choice(unrevised))
        self.revised[target] = self.oracle.label(target)
