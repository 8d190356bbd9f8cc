"""Select-by-Expected-Utility (SEU) sampler from Nemo.

Nemo [Hsieh et al. 2022] selects the query instance whose *anticipated user
label function* is expected to be most useful for the downstream pipeline.
For textual data the candidate LF space of an instance is the set of keyword
LFs whose keyword occurs in the instance, and the utility of a keyword LF is
(roughly) how much of the currently-uncertain unlabeled mass it would cover.

This reproduction scores each candidate instance by

    score(x) = mean over keywords w in x of  coverage(w) * mean_entropy(w)

where ``coverage(w)`` is the fraction of pool documents containing *w* and
``mean_entropy(w)`` is the average label-model (or AL-model) entropy over
those documents — i.e. an LF is useful when it fires on many instances the
current pipeline is still unsure about.  For tabular datasets (where the
paper does not run Nemo) the sampler degrades to uncertainty sampling.
"""

from __future__ import annotations

import numpy as np

from repro.active_learning.base import BaseSampler, QueryContext, prediction_entropy

#: Cap on the keywords scored per candidate document (the most
#: document-frequent are kept, ties broken by keyword), bounding the
#: per-step cost.
MAX_KEYWORDS_PER_DOC = 30


class SEUSampler(BaseSampler):
    """Expected-utility sampling over the anticipated keyword-LF space."""

    name = "seu"

    def select(self, context: QueryContext) -> int:
        """Return the candidate whose anticipated LF has maximal expected utility."""
        if getattr(context.dataset, "token_sets", None) is None:
            # Tabular data: no keyword-LF space; fall back to uncertainty.
            proba = context.lm_proba if context.lm_proba is not None else context.al_proba
            if proba is None:
                return int(context.rng.choice(context.candidates))
            scores = prediction_entropy(np.asarray(proba)[context.candidates])
            return self._argmax_with_ties(scores, context.candidates, context.rng)
        return self._argmax_with_ties(self.scores(context), context.candidates, context.rng)

    def scores(self, context: QueryContext) -> np.ndarray:
        """Expected utility of each candidate's anticipated keyword LF (text pools)."""
        dataset = context.dataset
        token_sets, postings = dataset.token_sets, dataset.postings
        proba = context.lm_proba if context.lm_proba is not None else context.al_proba
        entropy = (
            prediction_entropy(np.asarray(proba))
            if proba is not None
            else np.ones(len(token_sets))
        )

        n_docs = len(token_sets)
        keyword_utility: dict[str, float] = {}
        for keyword, doc_ids in postings.items():
            coverage = len(doc_ids) / n_docs
            keyword_utility[keyword] = coverage * float(np.mean(entropy[doc_ids]))

        scores = np.zeros(len(context.candidates))
        for row, idx in enumerate(context.candidates):
            if not token_sets[idx]:
                continue
            # Most document-frequent first, ties by keyword: set iteration
            # order is hash-randomised, and it would otherwise decide which
            # keywords survive the cap and the order their utilities sum in.
            keywords = sorted(token_sets[idx], key=lambda w: (-len(postings[w]), w))
            keywords = keywords[:MAX_KEYWORDS_PER_DOC]
            scores[row] = float(np.mean([keyword_utility[w] for w in keywords]))
        return scores
