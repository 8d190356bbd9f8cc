"""Tests for the LabelPick LF-selection method."""

import numpy as np
import pytest

from repro.core import LabelPick, LabelPickState
from repro.graphical import empirical_covariance
from repro.labeling import ABSTAIN, KeywordLF


def _make_lfs(n):
    return [KeywordLF(f"word{chr(97 + i)}", i % 2) for i in range(n)]


class TestAccuracyPruning:
    def test_prunes_worse_than_random_lfs(self, rng):
        n_valid = 200
        y_valid = rng.integers(0, 2, n_valid)
        good = np.where(rng.random(n_valid) < 0.9, y_valid, 1 - y_valid)
        bad = np.where(rng.random(n_valid) < 0.2, y_valid, 1 - y_valid)
        valid_matrix = np.column_stack([good, bad])
        lfs = _make_lfs(2)

        result = LabelPick().select(
            lfs, valid_matrix, y_valid,
            query_label_matrix=np.empty((0, 2), dtype=int),
            pseudo_labels=np.array([], dtype=int),
            n_classes=2,
        )
        assert 0 in result.selected_indices
        assert 1 not in result.selected_indices
        assert result.pruned_low_accuracy == [1]

    def test_never_firing_lf_is_kept(self, rng):
        y_valid = rng.integers(0, 2, 50)
        valid_matrix = np.column_stack([y_valid, np.full(50, ABSTAIN)])
        result = LabelPick().select(
            _make_lfs(2), valid_matrix, y_valid,
            np.empty((0, 2), dtype=int), np.array([], dtype=int), 2,
        )
        assert result.selected_indices == [0, 1]

    def test_all_bad_lfs_keeps_everything(self, rng):
        y_valid = rng.integers(0, 2, 100)
        bad = 1 - y_valid
        valid_matrix = np.column_stack([bad, bad])
        result = LabelPick().select(
            _make_lfs(2), valid_matrix, y_valid,
            np.empty((0, 2), dtype=int), np.array([], dtype=int), 2,
        )
        assert result.selected_indices == [0, 1]
        # The keep-all fallback must still report what failed pruning —
        # claiming nothing was pruned when everything was is a reporting bug.
        assert result.pruned_low_accuracy == [0, 1]

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7, 1.0])
    def test_accuracy_prune_matches_per_column_reference(self, rng, threshold):
        n_valid, n_lfs = 60, 9
        y_valid = rng.integers(0, 2, n_valid)
        fire_rate = np.linspace(0.0, 0.9, n_lfs)
        accuracy = np.linspace(0.1, 1.0, n_lfs)[::-1]
        fired = rng.random((n_valid, n_lfs)) < fire_rate
        correct = rng.random((n_valid, n_lfs)) < accuracy
        votes = np.where(correct, y_valid[:, None], 1 - y_valid[:, None])
        valid_matrix = np.where(fired, votes, ABSTAIN)

        survivors, pruned = LabelPick()._accuracy_prune(valid_matrix, y_valid, threshold)

        expected_pruned = []
        for j in range(n_lfs):
            votes_j = valid_matrix[:, j]
            on = votes_j != ABSTAIN
            # A never-firing LF carries no evidence and is always kept.
            if on.any() and np.mean(votes_j[on] == y_valid[on]) <= threshold:
                expected_pruned.append(j)
        assert pruned == expected_pruned
        assert survivors == [j for j in range(n_lfs) if j not in expected_pruned]
        assert valid_matrix[:, 0].tolist() == [ABSTAIN] * n_valid
        assert 0 in survivors


class TestStructureSelection:
    def test_redundant_lf_is_pruned_by_markov_blanket(self, rng):
        """An LF that is a copy of another should not both stay selected."""
        n_queries = 60
        pseudo = rng.integers(0, 2, n_queries)
        informative = pseudo.copy()
        duplicate = informative.copy()
        noise = rng.integers(0, 2, n_queries)
        query_matrix = np.column_stack([informative, duplicate, noise])

        n_valid = 200
        y_valid = rng.integers(0, 2, n_valid)
        # All three pass accuracy pruning on the validation set.
        valid_cols = [
            np.where(rng.random(n_valid) < 0.9, y_valid, 1 - y_valid) for _ in range(3)
        ]
        valid_matrix = np.column_stack(valid_cols)

        result = LabelPick(min_queries=8).select(
            _make_lfs(3), valid_matrix, y_valid, query_matrix, pseudo, 2
        )
        assert result.used_structure_learning
        assert len(result.selected_indices) >= 1
        assert 2 not in result.selected_indices or len(result.selected_indices) < 3

    def test_structure_learning_skipped_with_few_queries(self, rng):
        y_valid = rng.integers(0, 2, 50)
        valid_matrix = np.column_stack([y_valid, y_valid])
        query_matrix = np.array([[0, 1], [1, 0]])
        result = LabelPick(min_queries=8).select(
            _make_lfs(2), valid_matrix, y_valid, query_matrix, np.array([0, 1]), 2
        )
        assert not result.used_structure_learning
        assert result.selected_indices == [0, 1]

    def test_constant_query_matrix_keeps_survivors(self, rng):
        y_valid = rng.integers(0, 2, 50)
        valid_matrix = np.column_stack([y_valid, y_valid])
        query_matrix = np.zeros((20, 2), dtype=int)
        result = LabelPick(min_queries=8).select(
            _make_lfs(2), valid_matrix, y_valid, query_matrix, np.zeros(20, dtype=int), 2
        )
        assert result.selected_indices == [0, 1]


class TestIncrementalLabelPick:
    """Structure learning carried across calls via a LabelPickState."""

    @staticmethod
    def _scenario(rng, n_queries=30, n_lfs=6, n_valid=150):
        pseudo = rng.integers(0, 2, n_queries)
        query_matrix = np.column_stack([
            np.where(rng.random(n_queries) < 0.6 + 0.05 * j, pseudo, 1 - pseudo)
            for j in range(n_lfs)
        ])
        y_valid = rng.integers(0, 2, n_valid)
        valid_matrix = np.column_stack([
            np.where(rng.random(n_valid) < 0.9, y_valid, 1 - y_valid)
            for _ in range(n_lfs)
        ])
        return query_matrix, pseudo, valid_matrix, y_valid

    def test_stateful_matches_stateless_on_growing_inputs(self, rng):
        """Warm structure learning selects the same LFs as cold refits."""
        query_matrix, pseudo, valid_matrix, y_valid = self._scenario(rng)
        picker = LabelPick(min_queries=8)
        state = LabelPickState()
        for n_queries, n_lfs in [(12, 3), (20, 4), (30, 6)]:
            args = (
                _make_lfs(n_lfs),
                valid_matrix[:, :n_lfs],
                y_valid,
                query_matrix[:n_queries, :n_lfs],
                pseudo[:n_queries],
                2,
            )
            stateless = picker.select(*args)
            stateful = picker.select(*args, state=state)
            assert stateful.used_structure_learning
            assert stateful.selected_indices == stateless.selected_indices
        assert state.n_fits == 3
        # Every fit after the first resumes from the carried estimate.
        assert state.n_warm_fits == 2

    def test_state_covariance_tracks_full_layout(self, rng):
        """The accumulator matches the from-scratch covariance of [label|LFs]."""
        query_matrix, pseudo, valid_matrix, y_valid = self._scenario(rng)
        picker = LabelPick(min_queries=8)
        state = LabelPickState()
        for n_queries, n_lfs in [(15, 4), (30, 6)]:
            picker.select(
                _make_lfs(n_lfs),
                valid_matrix[:, :n_lfs],
                y_valid,
                query_matrix[:n_queries, :n_lfs],
                pseudo[:n_queries],
                2,
                state=state,
            )
        full = np.column_stack([pseudo, query_matrix]).astype(float)
        assert state.covariance.n_rows == 30
        assert state.covariance.n_features == 7
        np.testing.assert_allclose(
            state.covariance.covariance(), empirical_covariance(full), atol=1e-10
        )

    def test_first_stateful_fit_is_cold(self, rng):
        query_matrix, pseudo, valid_matrix, y_valid = self._scenario(rng)
        state = LabelPickState()
        LabelPick(min_queries=8).select(
            _make_lfs(6), valid_matrix, y_valid, query_matrix, pseudo, 2, state=state
        )
        assert state.n_fits == 1 and state.n_warm_fits == 0
        assert state.glasso_result is not None
        assert state.glasso_survivors is not None

    def test_survivor_churn_still_warm_starts(self, rng):
        """Dropping a survivor between calls intersection-maps the rest."""
        query_matrix, pseudo, valid_matrix, y_valid = self._scenario(rng)
        picker = LabelPick(min_queries=8)
        state = LabelPickState()
        picker.select(
            _make_lfs(6), valid_matrix, y_valid, query_matrix, pseudo, 2, state=state
        )
        # Make LF 0 fail accuracy pruning on the second call: its validation
        # column now votes against the truth.
        churned_valid = valid_matrix.copy()
        churned_valid[:, 0] = 1 - y_valid
        result = picker.select(
            _make_lfs(6), churned_valid, y_valid, query_matrix, pseudo, 2, state=state
        )
        assert 0 not in result.selected_indices
        assert state.n_fits == 2 and state.n_warm_fits == 1

    def test_stateless_calls_do_not_touch_state(self, rng):
        query_matrix, pseudo, valid_matrix, y_valid = self._scenario(rng)
        LabelPick(min_queries=8).select(
            _make_lfs(6), valid_matrix, y_valid, query_matrix, pseudo, 2
        )
        state = LabelPickState()
        assert state.covariance is None and state.glasso_result is None


class TestEdgeCases:
    def test_empty_lf_list(self):
        result = LabelPick().select(
            [], np.empty((10, 0), dtype=int), np.zeros(10, dtype=int),
            np.empty((0, 0), dtype=int), np.array([], dtype=int), 2,
        )
        assert result.selected_indices == []

    def test_column_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            LabelPick().select(
                _make_lfs(2), np.zeros((10, 3), dtype=int), np.zeros(10, dtype=int),
                np.zeros((5, 2), dtype=int), np.zeros(5, dtype=int), 2,
            )

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            LabelPick(glasso_alpha=-1.0)
        with pytest.raises(ValueError):
            LabelPick(min_queries=1)

    def test_result_select_maps_indices_to_lfs(self):
        lfs = _make_lfs(3)
        from repro.core import LabelPickResult
        result = LabelPickResult(selected_indices=[0, 2])
        assert result.select(lfs) == [lfs[0], lfs[2]]
