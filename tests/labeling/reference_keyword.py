"""The per-document keyword scans, kept as a test oracle.

Verbatim copies of ``KeywordLF.apply`` and the ``_KeywordStatistics``
counting loop from before both read the dataset's postings index: each
walks every document's token set in Python.  ``test_keyword_oracle.py``
checks that the postings-based versions return equal votes and counts.
"""

from __future__ import annotations

import numpy as np

from repro.labeling.lf import ABSTAIN


def apply_keyword_lf(keyword: str, label: int, dataset) -> np.ndarray:
    """``KeywordLF(keyword, label).apply(dataset)`` by scanning every document."""
    token_sets = dataset.token_sets
    output = np.full(len(token_sets), ABSTAIN, dtype=int)
    for i, tokens in enumerate(token_sets):
        if keyword in tokens:
            output[i] = label
    return output


class KeywordStatistics:
    """Per-keyword document frequency and class-conditional counts."""

    def __init__(self, dataset):
        self.n_documents = len(dataset)
        self.doc_count: dict[str, int] = {}
        self.class_count: dict[str, np.ndarray] = {}
        n_classes = dataset.n_classes
        for tokens, label in zip(dataset.token_sets, dataset.labels):
            for token in tokens:
                if token not in self.doc_count:
                    self.doc_count[token] = 0
                    self.class_count[token] = np.zeros(n_classes)
                self.doc_count[token] += 1
                self.class_count[token][label] += 1
