"""Candidate label-function spaces for the simulated user.

Two candidate spaces exist, matching Section 4.1.4 of the paper:

* **Textual datasets** — all keyword LFs ``lambda_{w, y}`` with keyword *w*
  contained in the query instance; eligible LFs must have training-set
  accuracy above the threshold.
* **Tabular datasets** — all decision stumps ``lambda_{j, v, op, y}`` with
  the query instance's feature value on the boundary (``v = x_j``), one per
  (feature, operator, class) combination, again filtered by accuracy.

:func:`enumerate_keyword_lfs` and :func:`enumerate_threshold_lfs` enumerate
each space globally (not per query) for the IWS baseline, which proposes
candidates instead of asking the user to write them.

The keyword statistics are read once per dataset off its postings index
(:attr:`~repro.datasets.TextDataset.postings`, token -> document ids), so
per-query candidate construction is a cheap dictionary lookup even for long
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import TabularDataset, TextDataset
from repro.labeling.lf import KeywordLF, LabelFunction, ThresholdLF


@dataclass
class CandidateLF:
    """A candidate label function plus its training-set statistics.

    Attributes
    ----------
    lf:
        The label function object.
    coverage:
        Fraction of training instances the LF labels.
    accuracy:
        Empirical accuracy of the LF on the training instances it labels.
    """

    lf: LabelFunction
    coverage: float
    accuracy: float


class _KeywordStatistics:
    """Per-keyword document frequency and class-conditional counts."""

    def __init__(self, dataset: TextDataset):
        self.n_documents = len(dataset)
        postings = dataset.postings
        labels, n_classes = dataset.labels, dataset.n_classes
        self.doc_count: dict[str, int] = {token: len(docs) for token, docs in postings.items()}
        self.class_count: dict[str, np.ndarray] = {
            token: np.bincount(labels[docs], minlength=n_classes).astype(float)
            for token, docs in postings.items()
        }

    def coverage(self, keyword: str) -> float:
        return self.doc_count.get(keyword, 0) / max(self.n_documents, 1)

    def accuracy(self, keyword: str, label: int) -> float:
        count = self.doc_count.get(keyword, 0)
        if count == 0:
            return 0.0
        return float(self.class_count[keyword][label] / count)


def _keyword_statistics(dataset: TextDataset) -> _KeywordStatistics:
    # Cached on the dataset object itself: a module-level dict keyed by
    # id(dataset) can hand stale statistics to a new dataset that reuses a
    # freed object's id.
    stats = getattr(dataset, "_keyword_statistics_cache", None)
    if stats is None:
        stats = _KeywordStatistics(dataset)
        dataset._keyword_statistics_cache = stats
    return stats


def keyword_lf_candidates(
    dataset: TextDataset,
    query_index: int,
    accuracy_threshold: float = 0.6,
    target_label: int | None = None,
    min_coverage: float = 0.0,
) -> list[CandidateLF]:
    """Candidate keyword LFs for one query instance of a text dataset.

    Parameters
    ----------
    dataset:
        The training pool (provides token sets and ground-truth labels used
        only for simulation).
    query_index:
        Index of the query instance.
    accuracy_threshold:
        Minimum training-set accuracy for a candidate (paper: 0.6).
    target_label:
        If given, restrict candidates to LFs emitting this class (used by the
        label-noise simulation that targets the *flipped* label); otherwise
        all classes are considered.
    min_coverage:
        Optional minimum coverage filter.
    """
    stats = _keyword_statistics(dataset)
    tokens = dataset.token_sets[query_index]
    labels = range(dataset.n_classes) if target_label is None else [target_label]
    candidates = []
    # Token sets have hash-randomised iteration order; sorting keeps the
    # candidate list (and the coverage-proportional draw over it) identical
    # across processes, which the parallel runner and result cache rely on.
    for keyword in sorted(tokens):
        coverage = stats.coverage(keyword)
        if coverage < min_coverage or coverage == 0.0:
            continue
        for label in labels:
            accuracy = stats.accuracy(keyword, label)
            if accuracy > accuracy_threshold:
                candidates.append(
                    CandidateLF(KeywordLF(keyword, label), coverage, accuracy)
                )
    return candidates


def threshold_lf_candidates(
    dataset: TabularDataset,
    query_index: int,
    accuracy_threshold: float = 0.6,
    target_label: int | None = None,
    min_coverage: float = 0.0,
) -> list[CandidateLF]:
    """Candidate decision-stump LFs for one query instance of a tabular dataset.

    For each feature *j*, operator in ``{<=, >=}`` and class *y*, the stump
    ``x_j op x_query_j -> y`` is a candidate when its training-set accuracy
    exceeds the threshold (paper Section 4.1.4).
    """
    raw = dataset.raw_features
    labels_true = dataset.labels
    query = raw[query_index]
    n_samples = len(raw)
    labels = range(dataset.n_classes) if target_label is None else [target_label]
    candidates = []
    for feature in range(raw.shape[1]):
        value = float(query[feature])
        for op in (">=", "<="):
            fires = raw[:, feature] >= value if op == ">=" else raw[:, feature] <= value
            n_fired = int(fires.sum())
            coverage = n_fired / max(n_samples, 1)
            if n_fired == 0 or coverage < min_coverage:
                continue
            fired_labels = labels_true[fires]
            for label in labels:
                accuracy = float(np.mean(fired_labels == label))
                if accuracy > accuracy_threshold:
                    candidates.append(
                        CandidateLF(ThresholdLF(feature, value, op, label), coverage, accuracy)
                    )
    return candidates


def enumerate_keyword_lfs(
    dataset: TextDataset,
    min_coverage: float = 0.01,
    max_candidates: int | None = None,
) -> list[CandidateLF]:
    """Enumerate the global keyword-LF space of a text dataset.

    Used by the IWS baseline, which proposes candidate LFs for the user to
    verify rather than asking the user to write them.  For every keyword with
    coverage at least *min_coverage*, the LF targeting the keyword's majority
    class is produced.  Candidates are sorted by coverage (descending) and
    optionally truncated.
    """
    stats = _keyword_statistics(dataset)
    candidates = []
    # doc_count inherits hash-randomised set order; sort by keyword and break
    # coverage ties alphabetically so the enumeration is process-independent.
    for keyword, count in sorted(stats.doc_count.items()):
        coverage = count / max(stats.n_documents, 1)
        if coverage < min_coverage:
            continue
        class_counts = stats.class_count[keyword]
        label = int(np.argmax(class_counts))
        accuracy = float(class_counts[label] / count)
        candidates.append(CandidateLF(KeywordLF(keyword, label), coverage, accuracy))
    candidates.sort(key=lambda c: (-c.coverage, c.lf.keyword))
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return candidates


def enumerate_threshold_lfs(dataset: TabularDataset) -> list[CandidateLF]:
    """Enumerate the global decision-stump space of a tabular dataset.

    The tabular counterpart of :func:`enumerate_keyword_lfs`: for every
    feature, each distinct decile (10%, 20%, ..., 90%) of its training values
    gives a ``>=`` and a ``<=`` stump that fires at least once, labelling its
    fired instances' majority class.  Candidates are stably sorted by
    coverage (descending).
    """
    raw = dataset.raw_features
    quantiles = np.linspace(0.1, 0.9, 9)
    candidates = []
    for feature in range(raw.shape[1]):
        thresholds = np.unique(np.quantile(raw[:, feature], quantiles))
        for value in thresholds:
            for op in (">=", "<="):
                fires = raw[:, feature] >= value if op == ">=" else raw[:, feature] <= value
                if not np.any(fires):
                    continue
                coverage = float(fires.mean())
                fired_labels = dataset.labels[fires]
                label = int(np.argmax(np.bincount(fired_labels, minlength=dataset.n_classes)))
                accuracy = float(np.mean(fired_labels == label))
                candidates.append(
                    CandidateLF(ThresholdLF(feature, float(value), op, label), coverage, accuracy)
                )
    candidates.sort(key=lambda c: c.coverage, reverse=True)
    return candidates


def candidate_lfs_for_query(
    dataset,
    query_index: int,
    accuracy_threshold: float = 0.6,
    target_label: int | None = None,
) -> list[CandidateLF]:
    """Dispatch to the keyword or threshold candidate space based on dataset kind."""
    if isinstance(dataset, TextDataset):
        return keyword_lf_candidates(
            dataset, query_index, accuracy_threshold, target_label
        )
    if isinstance(dataset, TabularDataset):
        return threshold_lf_candidates(
            dataset, query_index, accuracy_threshold, target_label
        )
    raise TypeError(
        "dataset must be a TextDataset or TabularDataset, got "
        f"{type(dataset).__name__}"
    )
