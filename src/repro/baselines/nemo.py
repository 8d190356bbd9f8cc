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
from repro.baselines.base import LabelModelPipeline
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.labeling.lf import ABSTAIN
from repro.utils.rng import RandomState


class NemoPipeline(LabelModelPipeline):
    """SEU-guided interactive LF development with a label model.

    The label model is refitted on all LFs whenever the user returns a new
    one (see :class:`~repro.baselines.base.LabelModelPipeline`).
    """

    name = "nemo"

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        super().__init__(data_split, random_state)
        self.sampler = SEUSampler()
        self.queried: list[int] = []

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
            lm_proba=self.lm_proba,
            queried_indices=np.asarray(self.queried, dtype=int),
            queried_labels=np.full(len(self.queried), ABSTAIN, dtype=int),
            rng=self.rng,
        )
        query = self.sampler.select(context)
        self.queried.append(query)

        lf = self.user.design_lf(query)
        if lf is not None and lf not in self.lfs:
            self.add_lf(lf)
            self.refit()
        record = IterationRecord(
            iteration=self.iteration,
            query_index=int(query),
            lf_name=lf.name if lf is not None else None,
            n_lfs=len(self.lfs),
        )
        self.iteration += 1
        return record
