"""Bag-of-words and TF-IDF vectorisers built on :class:`Vocabulary`.

Dense NumPy output is used throughout: the synthetic benchmark corpora keep
vocabularies small (a few thousand terms), so dense matrices stay well within
memory while keeping the downstream linear algebra simple and fast.
Features are weighed in place in the buffer the terms were counted in, so a
split's weighting holds one documents x vocabulary array, not three.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.text.tokenizer import tokenize
from repro.text.vocabulary import Vocabulary

#: Rows squared at once by :func:`_row_norms`: bounds its temporary to
#: ``NORM_BLOCK_ROWS`` x vocabulary floats.
NORM_BLOCK_ROWS = 512


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Return the L2 norm of each row of a real 2-D *matrix*.

    ``np.linalg.norm(matrix, axis=1)`` on a real array is
    ``sqrt(add.reduce(matrix * matrix, axis=1))`` (``conj()`` of a real
    array is the array), and ``add.reduce`` sums each row on its own, so
    squaring one block of rows at a time gives the same bits with a
    temporary of one block instead of two full copies.
    """
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), NORM_BLOCK_ROWS):
        block = matrix[start : start + NORM_BLOCK_ROWS]
        norms[start : start + len(block)] = np.add.reduce(block * block, axis=1)
    return np.sqrt(norms, out=norms)


class CountVectorizer:
    """Convert raw documents into a dense term-count matrix.

    Parameters
    ----------
    min_df:
        Minimum document frequency for a term to enter the vocabulary.
    max_features:
        Optional cap on vocabulary size (most document-frequent terms kept).
    binary:
        If ``True`` record term presence (0/1) instead of counts.
    tokenizer:
        Callable mapping a document to a token list; defaults to
        :func:`repro.text.tokenize`.
    """

    def __init__(
        self,
        min_df: int = 1,
        max_features: int | None = None,
        binary: bool = False,
        tokenizer: Callable[[str], list[str]] | None = None,
    ):
        self.min_df = min_df
        self.max_features = max_features
        self.binary = binary
        self.tokenizer = tokenizer or tokenize

    def fit(self, documents: Sequence[str]) -> "CountVectorizer":
        """Learn the vocabulary from *documents*."""
        return self.fit_tokens([self.tokenizer(doc) for doc in documents])

    def fit_tokens(self, tokenized_documents: Iterable[Iterable[str]]) -> "CountVectorizer":
        """Learn the vocabulary from already-tokenised documents."""
        self.vocabulary_ = Vocabulary(min_df=self.min_df, max_features=self.max_features)
        self.vocabulary_.fit(tokenized_documents)
        return self

    def transform(self, documents: Sequence[str]) -> np.ndarray:
        """Return the ``(n_documents, n_terms)`` count matrix."""
        if not hasattr(self, "vocabulary_"):
            raise RuntimeError("CountVectorizer is not fitted yet; call fit() first")
        vocab = self.vocabulary_
        counts = np.zeros((len(documents), len(vocab)), dtype=float)
        for row, doc in enumerate(documents):
            for token in self.tokenizer(doc):
                if token in vocab:
                    counts[row, vocab.index(token)] += 1.0
        return self._weigh_in_place(counts)

    def weight_counts(self, counts: np.ndarray) -> np.ndarray:
        """Turn a raw ``(n_documents, n_terms)`` term-count matrix into features.

        Columns follow :attr:`vocabulary_`'s index order.  *counts* is never
        modified: the features are weighed in a fresh float copy, which is
        returned and owns its data.  :meth:`transform` weighs the count
        matrix it builds by the same step, so callers that count terms some
        other way get the same features.
        """
        return self._weigh_in_place(np.array(counts, dtype=float))

    def _weigh_in_place(self, counts: np.ndarray) -> np.ndarray:
        """Weigh a float count matrix the caller owns in place and return it."""
        if self.binary:
            np.minimum(counts, 1.0, out=counts)
        return counts

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        """Fit the vocabulary and return the count matrix for *documents*."""
        return self.fit(documents).transform(documents)

    def get_feature_names(self) -> list[str]:
        """Return vocabulary terms in column order."""
        if not hasattr(self, "vocabulary_"):
            raise RuntimeError("CountVectorizer is not fitted yet; call fit() first")
        return self.vocabulary_.tokens


class TfidfVectorizer(CountVectorizer):
    """TF-IDF features with smoothed IDF and L2 row normalisation.

    Matches the scikit-learn defaults the paper relies on:
    ``idf(t) = ln((1 + n) / (1 + df(t))) + 1`` and unit-L2 rows.
    """

    def fit_tokens(self, tokenized_documents: Iterable[Iterable[str]]) -> "TfidfVectorizer":
        """Learn the vocabulary and per-term IDF weights from token lists."""
        super().fit_tokens(tokenized_documents)
        n_docs = self.vocabulary_.n_documents_
        df = np.array(
            [self.vocabulary_.document_frequency[t] for t in self.vocabulary_.tokens],
            dtype=float,
        )
        self.idf_ = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return self

    def _weigh_in_place(self, counts: np.ndarray) -> np.ndarray:
        """Turn *counts* into its L2-normalised TF-IDF matrix in place."""
        if not hasattr(self, "idf_"):
            raise RuntimeError("TfidfVectorizer is not fitted yet; call fit() first")
        counts = super()._weigh_in_place(counts)
        np.multiply(counts, self.idf_, out=counts)
        norms = _row_norms(counts)
        norms[norms == 0.0] = 1.0
        return np.divide(counts, norms[:, None], out=counts)

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        """Fit IDF weights and return the TF-IDF matrix for *documents*."""
        return self.fit(documents).transform(documents)
