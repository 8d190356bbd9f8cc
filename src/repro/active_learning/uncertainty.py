"""Uncertainty sampling: maximum predictive entropy.

Uncertainty sampling [Lewis 1995] queries the instance whose current model
prediction has the highest entropy.  It prefers the active-learning model's
probabilities and falls back to the label model's (and finally to random
choice) when no model is available yet.
"""

from __future__ import annotations

from repro.active_learning.base import BaseSampler, QueryContext, prediction_entropy


class UncertaintySampler(BaseSampler):
    """Maximum predictive-entropy sampling."""

    name = "uncertainty"

    def select(self, context: QueryContext) -> int:
        """Return the candidate with the highest prediction entropy."""
        proba = context.al_proba if context.al_proba is not None else context.lm_proba
        if proba is None:
            return int(context.rng.choice(context.candidates))
        scores = prediction_entropy(proba[context.candidates])
        return self._argmax_with_ties(scores, context.candidates, context.rng)
