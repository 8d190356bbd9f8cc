"""Classical pool-based uncertainty sampling (the "US" baseline).

Each iteration queries the instance with the highest predictive entropy of
the current model and asks the oracle for its true label; the downstream
model is trained on the labelled subset only.  This is the pure
active-learning end of the design space the paper explores.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning.base import QueryContext
from repro.active_learning.uncertainty import UncertaintySampler
from repro.baselines.base import InteractivePipeline
from repro.core.evaluation import fit_end_model
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.simulation.oracle import Oracle
from repro.utils.rng import RandomState


class UncertaintySamplingPipeline(InteractivePipeline):
    """Uncertainty sampling with an instance-labelling oracle.

    The query model is the downstream logistic regression (``C = 1``),
    refitted on the labelled subset once it holds two classes.
    """

    name = "uncertainty"

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        super().__init__(data_split, random_state)
        self.sampler = UncertaintySampler()
        self.oracle = Oracle(data_split.train, random_state=int(self.rng.integers(2**31 - 1)))
        self.labeled_indices: list[int] = []
        self.labels: list[int] = []
        self._proba: np.ndarray | None = None

    def step(self):
        """Query the most uncertain instance and record its oracle label."""
        candidates = np.setdiff1d(
            np.arange(len(self.data.train)), np.asarray(self.labeled_indices, dtype=int)
        )
        if candidates.size == 0:
            return
        context = QueryContext(
            dataset=self.data.train,
            candidates=candidates,
            al_proba=self._proba,
            queried_indices=np.asarray(self.labeled_indices, dtype=int),
            queried_labels=np.asarray(self.labels, dtype=int),
            rng=self.rng,
        )
        query = self.sampler.select(context)
        self.labeled_indices.append(query)
        self.labels.append(self.oracle.label(query))
        self._retrain()
        record = IterationRecord(
            iteration=self.iteration, query_index=int(query), pseudo_label=self.labels[-1]
        )
        self.iteration += 1
        return record

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """The manually labelled subset."""
        return (
            np.asarray(self.labeled_indices, dtype=int),
            np.asarray(self.labels, dtype=int),
        )

    def _retrain(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        if len(labels) < 2 or len(np.unique(labels)) < 2:
            self._proba = None
            return
        model = fit_end_model(self.data.train, np.asarray(self.labeled_indices), labels)
        self._proba = model.predict_proba(self.data.train.features)
