"""Tests for the three label models (majority vote, generative EM, MeTaL-style)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.labeling import ABSTAIN
from repro.label_models import (
    GenerativeLabelModel,
    MajorityVoteLabelModel,
    MeTaLLabelModel,
    get_label_model,
)

ALL_MODELS = [
    ("majority_vote", MajorityVoteLabelModel),
    ("generative", GenerativeLabelModel),
    ("metal", MeTaLLabelModel),
]


class TestRegistry:
    @pytest.mark.parametrize("name, cls", ALL_MODELS)
    def test_get_label_model_returns_correct_class(self, name, cls):
        assert isinstance(get_label_model(name, n_classes=2), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_label_model("nonexistent")


@pytest.mark.parametrize("name, cls", ALL_MODELS)
class TestCommonBehaviour:
    def test_proba_rows_sum_to_one(self, name, cls, simple_label_matrix):
        matrix, _ = simple_label_matrix
        proba = cls(n_classes=2).fit(matrix).predict_proba(matrix)
        assert proba.shape == (len(matrix), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-8)
        assert proba.min() >= 0.0

    def test_beats_random_on_covered_instances(self, name, cls, simple_label_matrix):
        matrix, y = simple_label_matrix
        model = cls(n_classes=2).fit(matrix)
        predictions = model.predict(matrix)
        covered = np.any(matrix != ABSTAIN, axis=1)
        accuracy = np.mean(predictions[covered] == y[covered])
        assert accuracy > 0.7

    def test_uncovered_rows_get_uniform_probability(self, name, cls, simple_label_matrix):
        matrix, _ = simple_label_matrix
        extended = np.vstack([matrix, np.full((3, matrix.shape[1]), ABSTAIN)])
        proba = cls(n_classes=2).fit(extended).predict_proba(extended)
        np.testing.assert_allclose(proba[-3:], 0.5, atol=1e-8)

    def test_predict_with_abstain_on_uncovered(self, name, cls, simple_label_matrix):
        matrix, _ = simple_label_matrix
        extended = np.vstack([matrix, np.full((2, matrix.shape[1]), ABSTAIN)])
        model = cls(n_classes=2).fit(extended)
        labels = model.predict(extended, abstain_uncovered=True)
        assert np.all(labels[-2:] == ABSTAIN)

    def test_invalid_labels_raise(self, name, cls):
        bad = np.array([[0, 5], [1, 0]])
        with pytest.raises(ValueError):
            cls(n_classes=2).fit(bad)

    def test_invalid_n_classes_raises(self, name, cls):
        with pytest.raises(ValueError):
            cls(n_classes=1)


class TestMajorityVote:
    def test_simple_majority(self):
        matrix = np.array([[0, 0, 1], [1, 1, ABSTAIN]])
        labels = MajorityVoteLabelModel(n_classes=2).fit(matrix).predict(matrix)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_more_votes_increase_confidence(self):
        matrix = np.array([[1, ABSTAIN, ABSTAIN], [1, 1, 1]])
        proba = MajorityVoteLabelModel(n_classes=2).fit(matrix).predict_proba(matrix)
        assert proba[1, 1] > proba[0, 1]


class TestParametricModels:
    @pytest.mark.parametrize("cls", [GenerativeLabelModel, MeTaLLabelModel])
    def test_recovers_lf_accuracy_ordering(self, cls, rng):
        # Three LFs are needed for the accuracies to be identifiable
        # (classic Dawid-Skene requirement); the clearly-worse third LF must
        # receive a lower estimated accuracy than the two good ones.
        n = 2000
        y = rng.integers(0, 2, n)
        true_accs = [0.92, 0.9, 0.6]
        matrix = np.full((n, 3), ABSTAIN)
        for j, acc in enumerate(true_accs):
            fire = rng.random(n) < 0.6
            correct = rng.random(n) < acc
            matrix[fire & correct, j] = y[fire & correct]
            matrix[fire & ~correct, j] = 1 - y[fire & ~correct]
        model = cls(n_classes=2).fit(matrix)
        assert model.accuracies_[2] < model.accuracies_[0]
        assert model.accuracies_[2] < model.accuracies_[1]

    @pytest.mark.parametrize("cls", [GenerativeLabelModel, MeTaLLabelModel])
    def test_handles_unipolar_keyword_style_lfs(self, cls, rng):
        """One-sided LFs must not trigger the 'one class explains all' collapse."""
        n = 1500
        y = rng.integers(0, 2, n)
        matrix = np.full((n, 6), ABSTAIN)
        for j in range(6):
            lf_class = j % 2
            fire_proba = np.where(y == lf_class, 0.5, 0.08)
            fire = rng.random(n) < fire_proba
            matrix[fire, j] = lf_class
        model = cls(n_classes=2).fit(matrix)
        predictions = model.predict(matrix)
        covered = np.any(matrix != ABSTAIN, axis=1)
        accuracy = np.mean(predictions[covered] == y[covered])
        assert accuracy > 0.8
        # Both classes must actually be predicted.
        assert len(np.unique(predictions[covered])) == 2

    @pytest.mark.parametrize("cls", [GenerativeLabelModel, MeTaLLabelModel])
    def test_respects_provided_class_balance(self, cls):
        matrix = np.full((10, 1), ABSTAIN)
        model = cls(n_classes=2, class_balance=np.array([0.8, 0.2])).fit(matrix)
        np.testing.assert_allclose(model.class_priors_, [0.8, 0.2])

    def test_zero_lf_matrix_predicts_uniform(self):
        matrix = np.empty((4, 0), dtype=int)
        for cls in (GenerativeLabelModel, MeTaLLabelModel):
            proba = cls(n_classes=2).fit(matrix).predict_proba(matrix)
            np.testing.assert_allclose(proba, 0.5)

    @pytest.mark.parametrize("cls", [GenerativeLabelModel, MeTaLLabelModel])
    def test_zero_row_fit_predicts_the_prior_and_exports_no_warm_start(self, cls):
        empty = np.empty((0, 3), dtype=int)
        model = cls(n_classes=2, class_balance=np.array([0.7, 0.3])).fit(empty)
        assert (model.n_lfs_, model.n_iter_, model.converged_) == (3, 0, True)
        proba = model.predict_proba([[0, ABSTAIN, 1], [ABSTAIN, ABSTAIN, ABSTAIN]])
        np.testing.assert_allclose(proba, [[0.7, 0.3], [0.7, 0.3]])
        assert model.export_warm_start() is None
        assert model.export_warm_start(column_map=[0, 1, 2, -1]) is None
        assert model.fit_predict_proba(empty).shape == (0, 2)
        with pytest.raises(ValueError):
            model.predict_proba([[0, 1]])  # the fitted width still holds

    def test_column_count_mismatch_raises(self, simple_label_matrix):
        matrix, _ = simple_label_matrix
        model = MeTaLLabelModel(n_classes=2).fit(matrix)
        with pytest.raises(ValueError):
            model.predict_proba(matrix[:, :3])

    def test_metal_accuracies_within_bounds(self, simple_label_matrix):
        matrix, _ = simple_label_matrix
        model = MeTaLLabelModel(n_classes=2).fit(matrix)
        low, high = model.accuracy_bounds
        assert np.all(model.accuracies_ >= low - 1e-9)
        assert np.all(model.accuracies_ <= high + 1e-9)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=20, max_value=60),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_label_model_probabilities_valid_property(n_lfs, n_instances, seed):
    """For random matrices, all models produce valid probability rows."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(n_instances, n_lfs))
    for name, _ in ALL_MODELS:
        model = get_label_model(name, n_classes=2)
        proba = model.fit(matrix).predict_proba(matrix)
        assert proba.shape == (n_instances, 2)
        assert np.all(proba >= -1e-9)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
