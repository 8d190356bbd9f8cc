"""Postings-based keyword votes and counts against the per-document scans.

``KeywordLF.apply`` and the simulated user's keyword statistics read
``TextDataset.postings``; ``reference_keyword`` keeps the loops that walked
every document's token set instead.  Both must agree on every keyword of
every text registry corpus, on each split and on a reordered subset.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_keyword as reference

from repro.datasets import TextDataset, dataset_names, load_dataset
from repro.labeling import KeywordLF
from repro.simulation.candidate_space import _KeywordStatistics


def _parts(name: str) -> dict[str, TextDataset]:
    split = load_dataset(name, scale=0.3, random_state=0)
    train = split.train
    return {
        "train": train,
        "valid": split.valid,
        "test": split.test,
        # Descending indices: the subset's postings must still be ascending.
        "subset": train.subset(np.arange(len(train))[::-3]),
    }


def _assert_matches_the_scans(dataset: TextDataset, keywords) -> None:
    stats = _KeywordStatistics(dataset)
    expected = reference.KeywordStatistics(dataset)
    assert stats.n_documents == expected.n_documents
    assert stats.doc_count == expected.doc_count
    assert stats.class_count.keys() == expected.class_count.keys()
    for token, counts in expected.class_count.items():
        assert stats.class_count[token].dtype == counts.dtype
        assert stats.class_count[token].tobytes() == counts.tobytes()
    for keyword in keywords:
        for label in range(dataset.n_classes):
            votes = KeywordLF(keyword, label).apply(dataset)
            assert votes.dtype == int
            np.testing.assert_array_equal(
                votes, reference.apply_keyword_lf(keyword, label, dataset)
            )


@pytest.mark.parametrize("part", ["train", "valid", "test", "subset"])
@pytest.mark.parametrize("name", dataset_names("text"))
def test_registry_votes_and_counts_match_the_scans(name, part):
    dataset = _parts(name)[part]
    keywords = sorted(reference.KeywordStatistics(dataset).doc_count)
    _assert_matches_the_scans(dataset, [*keywords, "absentkeyword"])
    for token, docs in dataset.postings.items():
        assert docs.dtype == np.intp
        assert np.all(np.diff(docs) > 0)
        assert docs.tolist() == [i for i, tokens in enumerate(dataset.token_sets) if token in tokens]


def _hand_built(token_sets) -> TextDataset:
    n = len(token_sets)
    return TextDataset(
        [" ".join(sorted(tokens)) for tokens in token_sets],
        token_sets,
        np.zeros((n, 1)),
        np.arange(n) % 2,
        2,
    )


def test_absent_and_single_document_keywords():
    dataset = _hand_built([{"shared", "once"}, {"shared"}, {"other"}, {"shared", "other"}])
    _assert_matches_the_scans(dataset, ["once", "shared", "other", "absentkeyword"])
    assert dataset.postings["once"].tolist() == [0]
    assert KeywordLF("once", 1).apply(dataset).tolist() == [1, -1, -1, -1]
    assert KeywordLF("absentkeyword", 1).apply(dataset).tolist() == [-1, -1, -1, -1]


def test_empty_dataset_has_empty_postings():
    dataset = _hand_built([])
    assert dataset.postings == {}
    assert KeywordLF("word", 0).apply(dataset).shape == (0,)
    _assert_matches_the_scans(dataset, ["word"])
