"""IWS baseline: interactive weak supervision via LF verification.

IWS [Boecking et al. 2020] flips the interaction around: instead of asking
the user to *write* LFs, the system proposes one candidate LF per iteration
and the user only answers whether it looks accurate.  In the unbounded
setting evaluated by the paper (IWS-LSE-a), the final LF set contains every
candidate the system believes to be accurate, and the label model trained on
that set labels the covered instances.

The candidate space is the 500 (``MAX_CANDIDATES``) highest-coverage LFs of
the simulated user's families: keyword LFs for text
(``enumerate_keyword_lfs``), quantile-grid decision stumps for tabular data
(``enumerate_threshold_lfs``).  ``_next_candidate`` shows the expert the
unproposed candidate with the highest coverage times agreement
with the current label model's hard labels (largest coverage first).  The
verdicts in ``verified`` do not feed that score, unlike IWS's learned
acquisition; see the ROADMAP item "Make the IWS baseline and the label-noise
study measure what the paper measures".
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LabelModelPipeline
from repro.datasets.base import DataSplit, TabularDataset, TextDataset
from repro.labeling.lf import ABSTAIN
from repro.simulation.candidate_space import (
    CandidateLF,
    enumerate_keyword_lfs,
    enumerate_threshold_lfs,
)
from repro.utils.rng import RandomState

MAX_CANDIDATES = 500


def _build_candidates(train) -> list[CandidateLF]:
    """The global candidate LF pool of *train*'s kind, largest coverage first."""
    if isinstance(train, TextDataset):
        candidates = enumerate_keyword_lfs(train, min_coverage=0.01)
    elif isinstance(train, TabularDataset):
        candidates = enumerate_threshold_lfs(train)
    else:
        raise TypeError("IWS requires a TextDataset or TabularDataset")
    return candidates[:MAX_CANDIDATES]


class IWSPipeline(LabelModelPipeline):
    """LF-verification pipeline in the unbounded (IWS-LSE-a) setting.

    Every candidate the simulated expert verifies as accurate (accuracy
    above 0.6) joins ``lfs`` and the label model is refitted.
    """

    name = "iws"

    def __init__(self, data_split: DataSplit, random_state: RandomState = None):
        super().__init__(data_split, random_state)
        self.candidates = _build_candidates(data_split.train)
        self.proposed: set[int] = set()
        self.verified: list[tuple[int, bool]] = []

    def step(self) -> None:
        """Propose the next candidate LF and record the expert's verdict."""
        candidate_id = self._next_candidate()
        if candidate_id is None:
            self.iteration += 1
            return
        self.proposed.add(candidate_id)
        lf = self.candidates[candidate_id].lf
        accepted = self.user.verify_lf(lf)
        self.verified.append((candidate_id, accepted))
        if accepted:
            self.add_lf(lf)
            self.refit()
        self.iteration += 1

    def _next_candidate(self) -> int | None:
        """Score unproposed candidates by coverage x estimated accuracy."""
        remaining = [i for i in range(len(self.candidates)) if i not in self.proposed]
        if not remaining:
            return None
        if self.label_model is None:
            # Cold start: largest-coverage candidate first.
            return max(remaining, key=lambda i: self.candidates[i].coverage)

        # Read through the base so ``self.generate_labels`` stays one call per
        # checkpoint.
        indices, labels = super().generate_labels()
        lm_labels = np.full(len(self.data.train), ABSTAIN, dtype=int)
        lm_labels[indices] = labels

        best_id, best_score = None, -np.inf
        for i in remaining:
            outputs = self.train_matrix.apply(self.candidates[i].lf)
            fired = (outputs != ABSTAIN) & (lm_labels != ABSTAIN)
            if np.any(fired):
                agreement = float(np.mean(outputs[fired] == lm_labels[fired]))
            else:
                agreement = 0.5
            score = self.candidates[i].coverage * agreement
            if score > best_score:
                best_score, best_id = score, i
        return best_id
