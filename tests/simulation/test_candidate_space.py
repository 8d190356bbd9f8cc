"""Tests for the candidate LF spaces of the simulated user."""

import numpy as np
import pytest

from repro.labeling import ABSTAIN, KeywordLF, ThresholdLF
from repro.simulation import (
    enumerate_keyword_lfs,
    enumerate_threshold_lfs,
    keyword_lf_candidates,
    threshold_lf_candidates,
)
from repro.simulation.candidate_space import candidate_lfs_for_query


class TestKeywordCandidates:
    def test_candidate_keywords_occur_in_query_instance(self, tiny_text_split):
        train = tiny_text_split.train
        candidates = keyword_lf_candidates(train, 0, accuracy_threshold=0.0)
        for candidate in candidates:
            assert candidate.lf.keyword in train.token_sets[0]

    def test_accuracy_threshold_filters(self, tiny_text_split):
        train = tiny_text_split.train
        loose = keyword_lf_candidates(train, 0, accuracy_threshold=0.0)
        strict = keyword_lf_candidates(train, 0, accuracy_threshold=0.9)
        assert len(strict) <= len(loose)
        for candidate in strict:
            assert candidate.accuracy > 0.9

    def test_candidate_statistics_match_direct_computation(self, tiny_text_split):
        train = tiny_text_split.train
        candidates = keyword_lf_candidates(train, 0, accuracy_threshold=0.0)
        for candidate in candidates[:5]:
            outputs = candidate.lf.apply(train)
            fired = outputs != ABSTAIN
            assert candidate.coverage == pytest.approx(fired.mean())
            accuracy = np.mean(outputs[fired] == train.labels[fired])
            assert candidate.accuracy == pytest.approx(accuracy)

    def test_target_label_restriction(self, tiny_text_split):
        train = tiny_text_split.train
        candidates = keyword_lf_candidates(train, 0, accuracy_threshold=0.0, target_label=1)
        assert all(candidate.lf.label == 1 for candidate in candidates)


class TestThresholdCandidates:
    def test_query_value_lies_on_boundary(self, tiny_tabular_split):
        train = tiny_tabular_split.train
        candidates = threshold_lf_candidates(train, 3, accuracy_threshold=0.0)
        assert candidates
        for candidate in candidates:
            lf = candidate.lf
            assert isinstance(lf, ThresholdLF)
            assert lf.value == pytest.approx(train.raw_features[3, lf.feature])

    def test_every_candidate_fires_on_its_query_instance(self, tiny_tabular_split):
        train = tiny_tabular_split.train
        candidates = threshold_lf_candidates(train, 5, accuracy_threshold=0.0)
        for candidate in candidates:
            outputs = candidate.lf.apply(train.subset(np.array([5])))
            assert outputs[0] != ABSTAIN

    def test_accuracy_threshold_filters(self, tiny_tabular_split):
        train = tiny_tabular_split.train
        strict = threshold_lf_candidates(train, 0, accuracy_threshold=0.9)
        for candidate in strict:
            assert candidate.accuracy > 0.9


class TestEnumerateKeywordLFs:
    def test_candidates_sorted_by_coverage(self, tiny_text_split):
        candidates = enumerate_keyword_lfs(tiny_text_split.train, min_coverage=0.01)
        coverages = [c.coverage for c in candidates]
        assert coverages == sorted(coverages, reverse=True)

    def test_max_candidates_truncates(self, tiny_text_split):
        candidates = enumerate_keyword_lfs(tiny_text_split.train, max_candidates=5)
        assert len(candidates) <= 5

    def test_each_candidate_targets_majority_class_of_keyword(self, tiny_text_split):
        train = tiny_text_split.train
        for candidate in enumerate_keyword_lfs(train, min_coverage=0.05)[:10]:
            outputs = candidate.lf.apply(train)
            fired = outputs != ABSTAIN
            majority = np.bincount(train.labels[fired], minlength=2).argmax()
            assert candidate.lf.label == majority


class TestEnumerateThresholdLFs:
    def test_candidates_sorted_by_coverage(self, tiny_tabular_split):
        candidates = enumerate_threshold_lfs(tiny_tabular_split.train)
        coverages = [c.coverage for c in candidates]
        assert coverages == sorted(coverages, reverse=True)

    def test_statistics_match_the_stump_outputs(self, tiny_tabular_split):
        train = tiny_tabular_split.train
        candidates = enumerate_threshold_lfs(train)
        assert candidates
        for candidate in candidates:
            fired = candidate.lf.apply(train) != ABSTAIN
            fired_labels = train.labels[fired]
            assert candidate.coverage == fired.mean() > 0
            assert candidate.lf.label == np.bincount(fired_labels, minlength=2).argmax()
            assert candidate.accuracy == np.mean(fired_labels == candidate.lf.label)


class TestDispatch:
    def test_dispatches_by_dataset_kind(self, tiny_text_split, tiny_tabular_split):
        text_cands = candidate_lfs_for_query(tiny_text_split.train, 0, 0.0)
        tab_cands = candidate_lfs_for_query(tiny_tabular_split.train, 0, 0.0)
        assert all(isinstance(c.lf, KeywordLF) for c in text_cands)
        assert all(isinstance(c.lf, ThresholdLF) for c in tab_cands)

    def test_unknown_dataset_type_raises(self):
        with pytest.raises(TypeError):
            candidate_lfs_for_query(object(), 0)
