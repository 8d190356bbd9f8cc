"""IWS baseline: interactive weak supervision via LF verification.

IWS [Boecking et al. 2020] flips the interaction around: instead of asking
the user to *write* LFs, the system proposes one candidate LF per iteration
and the user only answers whether it looks accurate.  In the unbounded
setting evaluated by the paper (IWS-LSE-a), the final LF set contains every
candidate the system believes to be accurate, and the label model trained on
that set labels the covered instances.

The candidate space mirrors the simulated user's LF families (keyword LFs
for text, decision stumps for tabular data).  ``_next_candidate`` shows the
expert the unproposed candidate with the highest coverage times agreement
with the current label model's hard labels (largest coverage first).  The
verdicts in ``verified`` do not feed that score, unlike IWS's learned
acquisition; see the ROADMAP item "Make the IWS baseline and the label-noise
study measure what the paper measures".
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import InteractivePipeline
from repro.datasets.base import DataSplit, TabularDataset, TextDataset
from repro.labeling.lf import ABSTAIN, LabelFunction, ThresholdLF
from repro.label_models import get_label_model
from repro.simulation.candidate_space import CandidateLF, enumerate_keyword_lfs
from repro.simulation.simulated_user import SimulatedUser
from repro.utils.rng import RandomState


class IWSPipeline(InteractivePipeline):
    """LF-verification pipeline in the unbounded (IWS-LSE-a) setting.

    Parameters
    ----------
    data_split, random_state:
        See :class:`InteractivePipeline`.
    label_model:
        Label-model registry name.
    accuracy_threshold:
        Verification threshold of the simulated expert (paper: 0.6).
    max_candidates:
        Size of the global candidate LF pool.
    """

    name = "iws"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        label_model: str = "metal",
        accuracy_threshold: float = 0.6,
        max_candidates: int = 500,
    ):
        super().__init__(data_split, random_state)
        self.user = SimulatedUser(
            data_split.train,
            accuracy_threshold=accuracy_threshold,
            random_state=int(self.rng.integers(2**31 - 1)),
        )
        self.label_model_name = label_model
        self.candidates = self._build_candidates(max_candidates)
        self.proposed: set[int] = set()
        self.accepted: list[LabelFunction] = []
        self.verified: list[tuple[int, bool]] = []
        self.label_model = None
        self._train_matrix = np.empty((len(data_split.train), 0), dtype=int)
        self._candidate_outputs: dict[int, np.ndarray] = {}

    # ---------------------------------------------------------------- steps
    def step(self) -> None:
        """Propose the next candidate LF and record the expert's verdict."""
        candidate_id = self._next_candidate()
        if candidate_id is None:
            self.iteration += 1
            return
        self.proposed.add(candidate_id)
        candidate = self.candidates[candidate_id]
        accepted = self.user.verify_lf(candidate.lf)
        self.verified.append((candidate_id, accepted))
        if accepted:
            self.accepted.append(candidate.lf)
            column = self._candidate_output(candidate_id).reshape(-1, 1)
            self._train_matrix = np.hstack([self._train_matrix, column])
            self._retrain()
        self.iteration += 1

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-model hard labels on the instances covered by accepted LFs."""
        if self._train_matrix.shape[1] == 0 or self.label_model is None:
            return np.array([], dtype=int), np.array([], dtype=int)
        covered = np.any(self._train_matrix != ABSTAIN, axis=1)
        indices = np.flatnonzero(covered)
        proba = self.label_model.predict_proba(self._train_matrix[indices])
        return indices, np.argmax(proba, axis=1)

    # ------------------------------------------------------------- internals
    def _build_candidates(self, max_candidates: int) -> list[CandidateLF]:
        train = self.data.train
        if isinstance(train, TextDataset):
            return enumerate_keyword_lfs(train, min_coverage=0.01, max_candidates=max_candidates)
        if isinstance(train, TabularDataset):
            return self._enumerate_stumps(train, max_candidates)
        raise TypeError("IWS requires a TextDataset or TabularDataset")

    def _enumerate_stumps(self, train: TabularDataset, max_candidates: int) -> list[CandidateLF]:
        """Quantile-grid decision stumps as the tabular candidate LF space."""
        candidates: list[CandidateLF] = []
        raw = train.raw_features
        quantiles = np.linspace(0.1, 0.9, 9)
        for feature in range(raw.shape[1]):
            thresholds = np.unique(np.quantile(raw[:, feature], quantiles))
            for value in thresholds:
                for op in (">=", "<="):
                    fires = raw[:, feature] >= value if op == ">=" else raw[:, feature] <= value
                    if not np.any(fires):
                        continue
                    coverage = float(fires.mean())
                    fired_labels = train.labels[fires]
                    label = int(np.argmax(np.bincount(fired_labels, minlength=train.n_classes)))
                    accuracy = float(np.mean(fired_labels == label))
                    candidates.append(
                        CandidateLF(ThresholdLF(feature, float(value), op, label), coverage, accuracy)
                    )
        candidates.sort(key=lambda c: c.coverage, reverse=True)
        return candidates[:max_candidates]

    def _candidate_output(self, candidate_id: int) -> np.ndarray:
        if candidate_id not in self._candidate_outputs:
            self._candidate_outputs[candidate_id] = self.candidates[candidate_id].lf.apply(
                self.data.train
            )
        return self._candidate_outputs[candidate_id]

    def _next_candidate(self) -> int | None:
        """Score unproposed candidates by coverage x estimated accuracy."""
        remaining = [i for i in range(len(self.candidates)) if i not in self.proposed]
        if not remaining:
            return None
        if self.label_model is None or self._train_matrix.shape[1] == 0:
            # Cold start: largest-coverage candidate first.
            return max(remaining, key=lambda i: self.candidates[i].coverage)

        lm_labels = np.full(len(self.data.train), ABSTAIN, dtype=int)
        covered = np.any(self._train_matrix != ABSTAIN, axis=1)
        if np.any(covered):
            proba = self.label_model.predict_proba(self._train_matrix[covered])
            lm_labels[covered] = np.argmax(proba, axis=1)

        best_id, best_score = None, -np.inf
        for i in remaining:
            outputs = self._candidate_output(i)
            fired = (outputs != ABSTAIN) & (lm_labels != ABSTAIN)
            if np.any(fired):
                agreement = float(np.mean(outputs[fired] == lm_labels[fired]))
            else:
                agreement = 0.5
            score = self.candidates[i].coverage * agreement
            if score > best_score:
                best_score, best_id = score, i
        return best_id

    def _retrain(self) -> None:
        self.label_model = get_label_model(self.label_model_name, n_classes=self.n_classes)
        self.label_model.fit(self._train_matrix)
