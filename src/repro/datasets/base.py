"""Dataset containers shared by the whole framework.

Two concrete dataset kinds exist, matching the two LF families of the paper:

* :class:`TextDataset` — raw documents plus their token sets, a postings
  index over them (read by keyword LFs, the simulated user's keyword
  statistics and the SEU sampler) and a dense feature matrix (TF-IDF) for
  the ML models.
* :class:`TabularDataset` — raw feature values (consumed by threshold LFs)
  plus a standardised feature matrix for the ML models.

A :class:`DataSplit` groups the train/validation/test portions of one
benchmark dataset together with task metadata.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.models.logistic_regression import _csr_design
from repro.utils.validation import freeze_finite


class Dataset:
    """Base container: features, labels and task metadata.

    The feature matrix is scanned for finiteness once, here.  A finite one
    that owns its data is made read-only, so models skip that scan on every
    later fit and predict (:func:`~repro.utils.validation.freeze_finite`).

    Parameters
    ----------
    features:
        Dense ``(n_instances, n_features)`` model-ready feature matrix.
    labels:
        Ground-truth integer labels (used by the simulated user / oracle and
        for evaluation; the frameworks never read training labels directly).
    n_classes:
        Number of classes in the task.
    name:
        Human-readable dataset (split) name.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, n_classes: int, name: str = ""):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise ValueError("features must be a 2-dimensional array")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-dimensional array")
        if len(features) != len(labels):
            raise ValueError(
                f"features ({len(features)}) and labels ({len(labels)}) lengths differ"
            )
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        freeze_finite(features)
        self.features = features
        self.labels = labels
        self.n_classes = n_classes
        self.name = name

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        """Number of model-ready feature columns."""
        return self.features.shape[1]

    @property
    def instances(self) -> Sequence:
        """Raw instances (documents or feature rows); overridden by subclasses."""
        return self.features

    @cached_property
    def csr(self) -> sparse.csr_matrix:
        """The features' non-zeros as a CSR matrix, built on first use and kept.

        The end models fit on row slices of it (``csr[indices]``) instead
        of a dense ``features[indices]`` copy; ``csr.toarray()`` equals
        ``features`` except that a signed zero reads ``+0.0``.  Its arrays
        are read-only, like the features.
        """
        flat_nonzero = np.flatnonzero(self.features)
        rows, columns = np.divmod(flat_nonzero, self.n_features)
        values = self.features.ravel()[flat_nonzero]
        csr = _csr_design(rows, columns, values, self.features.shape, fit_intercept=False)
        for array in (csr.data, csr.indices, csr.indptr):
            array.flags.writeable = False
        return csr

    def class_balance(self) -> np.ndarray:
        """Empirical class distribution."""
        counts = np.bincount(self.labels, minlength=self.n_classes).astype(float)
        total = counts.sum()
        return counts / total if total else np.full(self.n_classes, 1.0 / self.n_classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset restricted to *indices*."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.features[indices], self.labels[indices], self.n_classes, self.name)


class TextDataset(Dataset):
    """Text classification dataset.

    Parameters
    ----------
    texts:
        Raw documents.
    token_sets:
        Set of tokens per document (what keyword LFs match against).
    features:
        Dense TF-IDF (or other) feature matrix aligned with *texts*.
    labels, n_classes, name:
        See :class:`Dataset`.
    """

    def __init__(
        self,
        texts: Sequence[str],
        token_sets: Sequence[frozenset],
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        name: str = "",
    ):
        super().__init__(features, labels, n_classes, name)
        if len(texts) != len(self.labels) or len(token_sets) != len(self.labels):
            raise ValueError("texts, token_sets and labels must have equal lengths")
        self.texts = list(texts)
        self.token_sets = [frozenset(tokens) for tokens in token_sets]

    @property
    def instances(self) -> Sequence[str]:
        """Raw documents."""
        return self.texts

    @cached_property
    def postings(self) -> dict[str, np.ndarray]:
        """Token -> ascending ``np.intp`` ids of the documents containing it.

        The dataset's one token index, built on first use and kept on the
        object, so ``token_sets`` must not change afterwards.  Keys follow
        first occurrence, which hash-randomised set order decides: readers
        look tokens up or sort them, and never let the key order reach an
        output.
        """
        index: defaultdict[str, list[int]] = defaultdict(list)
        for doc_id, tokens in enumerate(self.token_sets):
            for token in tokens:
                index[token].append(doc_id)
        return {token: np.array(ids, dtype=np.intp) for token, ids in index.items()}

    def subset(self, indices: np.ndarray) -> "TextDataset":
        indices = np.asarray(indices, dtype=int)
        return TextDataset(
            [self.texts[i] for i in indices],
            [self.token_sets[i] for i in indices],
            self.features[indices],
            self.labels[indices],
            self.n_classes,
            self.name,
        )


class TabularDataset(Dataset):
    """Tabular classification dataset.

    Parameters
    ----------
    raw_features:
        Unscaled feature values (what threshold LFs compare against).
    features:
        Standardised feature matrix used by the ML models.
    feature_names:
        Optional column names.
    labels, n_classes, name:
        See :class:`Dataset`.
    """

    def __init__(
        self,
        raw_features: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        feature_names: Sequence[str] | None = None,
        name: str = "",
    ):
        super().__init__(features, labels, n_classes, name)
        raw_features = np.asarray(raw_features, dtype=float)
        if raw_features.shape[0] != len(self.labels):
            raise ValueError("raw_features and labels must have equal lengths")
        self.raw_features = raw_features
        if feature_names is None:
            feature_names = [f"feature_{j}" for j in range(raw_features.shape[1])]
        if len(feature_names) != raw_features.shape[1]:
            raise ValueError("feature_names must match the raw feature count")
        self.feature_names = list(feature_names)

    @property
    def instances(self) -> np.ndarray:
        """Raw (unscaled) feature rows."""
        return self.raw_features

    def subset(self, indices: np.ndarray) -> "TabularDataset":
        indices = np.asarray(indices, dtype=int)
        return TabularDataset(
            self.raw_features[indices],
            self.features[indices],
            self.labels[indices],
            self.n_classes,
            self.feature_names,
            self.name,
        )


@dataclass
class DataSplit:
    """Train/validation/test splits of one benchmark dataset.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"youtube"``).
    task:
        Task description from Table 2 (e.g. ``"Spam classification"``).
    kind:
        ``"text"`` or ``"tabular"``.
    train, valid, test:
        The three dataset splits.
    metadata:
        Free-form extra information recorded by the generator.
    """

    name: str
    task: str
    kind: str
    train: Dataset
    valid: Dataset
    test: Dataset
    metadata: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        """Number of classes in the task."""
        return self.train.n_classes

    def sizes(self) -> tuple[int, int, int]:
        """Return ``(n_train, n_valid, n_test)``."""
        return len(self.train), len(self.valid), len(self.test)
