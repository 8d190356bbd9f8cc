"""Learning Active Learning (LAL) sampler.

LAL [Konyushkova et al. 2017] replaces hand-crafted query heuristics with a
regressor that predicts, from features of the current model state and of a
candidate instance, the expected error reduction obtained by labelling that
candidate.  The original uses random-forest regressors trained offline on
synthetic episodes; this reproduction keeps the same idea at laptop scale:

* state/instance features: predictive entropy, top-class probability, margin,
  distance to the labelled set, labelled-set size and class balance;
* the regressor is a ridge regression fitted online from Monte-Carlo
  episodes simulated on the already-queried (pseudo-)labelled subset —
  repeatedly hold out one labelled point, train the model without it, and
  record how much adding it back improves hold-out accuracy.

When too few labelled points exist to simulate episodes the sampler falls
back to uncertainty sampling, matching the "cold start with a heuristic"
behaviour of AliPy's implementation.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning.base import BaseSampler, QueryContext, prediction_entropy
from repro.active_learning.uncertainty import UncertaintySampler
from repro.labeling.lf import ABSTAIN
from repro.models.logistic_regression import LogisticRegression

#: Monte-Carlo leave-one-out episodes that fit the utility regressor at each
#: selection step.
N_EPISODES = 12
#: L2 regularisation of the utility regressor.
RIDGE = 1.0
#: Labelled instances (with two classes present) needed before the learned
#: regressor replaces plain uncertainty.
MIN_LABELED = 8


class LALSampler(BaseSampler):
    """Regression-based expected-error-reduction sampler."""

    name = "lal"

    # -------------------------------------------------------------- selection
    def select(self, context: QueryContext) -> int:
        """Return the candidate with the highest predicted utility."""
        proba = context.al_proba if context.al_proba is not None else context.lm_proba
        labeled_idx, labels = self._labeled_subset(context)

        usable = (
            proba is not None
            and labeled_idx.size >= MIN_LABELED
            and len(np.unique(labels)) >= 2
        )
        if not usable:
            return UncertaintySampler().select(context)

        weights = self._fit_utility_regressor(context, labeled_idx, labels)
        if weights is None:
            return UncertaintySampler().select(context)

        state_features = self._candidate_features(context, proba, labeled_idx, labels)
        scores = state_features @ weights
        return self._argmax_with_ties(scores, context.candidates, context.rng)

    # --------------------------------------------------------------- helpers
    def _labeled_subset(self, context: QueryContext) -> tuple[np.ndarray, np.ndarray]:
        if context.queried_indices.size == 0:
            return np.array([], dtype=int), np.array([], dtype=int)
        mask = context.queried_labels != ABSTAIN
        return context.queried_indices[mask], context.queried_labels[mask]

    def _candidate_features(
        self,
        context: QueryContext,
        proba: np.ndarray,
        labeled_idx: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Build the LAL state/instance feature matrix for the candidates."""
        candidate_proba = np.asarray(proba)[context.candidates]
        entropy = prediction_entropy(candidate_proba)
        top = candidate_proba.max(axis=1)
        sorted_proba = np.sort(candidate_proba, axis=1)
        margin = sorted_proba[:, -1] - sorted_proba[:, -2]

        labeled_features = context.features[labeled_idx]
        candidates = context.features[context.candidates]
        distances = np.array([
            np.min(np.linalg.norm(labeled_features - candidate, axis=1))
            for candidate in candidates
        ])
        n_labeled = len(labeled_idx) / max(len(context.features), 1)
        balance = np.bincount(labels, minlength=context.n_classes).max() / max(len(labels), 1)

        ones = np.ones(len(candidates))
        return np.column_stack([
            ones, entropy, top, margin, distances, n_labeled * ones, balance * ones,
        ])

    def _fit_utility_regressor(
        self,
        context: QueryContext,
        labeled_idx: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray | None:
        """Fit ridge regression of accuracy gain on state features via episodes."""
        rng = context.rng
        features = context.features
        episode_X, episode_y = [], []
        n_labeled = len(labeled_idx)

        for _ in range(N_EPISODES):
            held_out = int(rng.integers(n_labeled))
            train_mask = np.ones(n_labeled, dtype=bool)
            train_mask[held_out] = False
            train_ids = labeled_idx[train_mask]
            train_labels = labels[train_mask]
            if len(np.unique(train_labels)) < 2:
                continue

            base_model = LogisticRegression(n_classes=context.n_classes, max_iter=50)
            base_model.fit(features[train_ids], train_labels)
            eval_ids = labeled_idx
            base_acc = base_model.score(features[eval_ids], labels)

            grown_model = LogisticRegression(n_classes=context.n_classes, max_iter=50)
            grown_model.fit(features[labeled_idx], labels)
            grown_acc = grown_model.score(features[eval_ids], labels)

            proba_held = base_model.predict_proba(features[labeled_idx[held_out]][None, :])
            entropy = prediction_entropy(proba_held)[0]
            top = proba_held.max()
            margin = np.sort(proba_held[0])[-1] - np.sort(proba_held[0])[-2]
            distance = float(np.min(
                np.linalg.norm(features[train_ids] - features[labeled_idx[held_out]], axis=1)
            )) if len(train_ids) else 0.0
            n_frac = len(train_ids) / max(len(features), 1)
            balance = np.bincount(train_labels, minlength=context.n_classes).max() / max(len(train_labels), 1)

            episode_X.append([1.0, entropy, top, margin, distance, n_frac, balance])
            episode_y.append(grown_acc - base_acc)

        if len(episode_X) < 3:
            return None
        X = np.asarray(episode_X)
        y = np.asarray(episode_y)
        gram = X.T @ X + RIDGE * np.eye(X.shape[1])
        return np.linalg.solve(gram, X.T @ y)
