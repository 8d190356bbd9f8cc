"""Tests for the L-BFGS multinomial logistic regression."""

import numpy as np
import pytest

from repro.models import LogisticRegression


def _separable_data(rng, n=200, n_features=5):
    X = rng.standard_normal((n, n_features))
    weights = np.zeros(n_features)
    weights[0] = 3.0
    y = (X @ weights + 0.1 * rng.standard_normal(n) > 0).astype(int)
    return X, y


class TestBinaryClassification:
    def test_learns_separable_problem(self, rng):
        X, y = _separable_data(rng)
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_predict_proba_rows_sum_to_one(self, rng):
        X, y = _separable_data(rng)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert proba.shape == (len(X), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_matches_argmax_of_proba(self, rng):
        X, y = _separable_data(rng)
        model = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(
            model.predict(X), np.argmax(model.predict_proba(X), axis=1)
        )

    def test_regularisation_shrinks_weights(self, rng):
        X, y = _separable_data(rng)
        strong = LogisticRegression(C=0.01).fit(X, y)
        weak = LogisticRegression(C=100.0).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_sample_weight_changes_fit(self, rng):
        X, y = _separable_data(rng, n=100)
        weights = np.where(y == 1, 10.0, 0.1)
        weighted = LogisticRegression().fit(X, y, sample_weight=weights)
        unweighted = LogisticRegression().fit(X, y)
        # Upweighting the positive class must increase predicted positives.
        assert weighted.predict(X).sum() >= unweighted.predict(X).sum()


class TestMulticlass:
    def test_three_class_problem(self, rng):
        n = 300
        X = rng.standard_normal((n, 2))
        y = np.zeros(n, dtype=int)
        y[X[:, 0] > 0.5] = 1
        y[X[:, 0] < -0.5] = 2
        model = LogisticRegression().fit(X, y)
        assert model.n_classes_ == 3
        assert model.score(X, y) > 0.85

    def test_explicit_class_count_stabilises_shape(self, rng):
        X = rng.standard_normal((20, 3))
        y = np.zeros(20, dtype=int)
        y[:5] = 1
        model = LogisticRegression(n_classes=4).fit(X, y)
        assert model.predict_proba(X).shape == (20, 4)


class TestDegenerateInputs:
    def test_single_class_training_set(self, rng):
        X = rng.standard_normal((10, 3))
        y = np.ones(10, dtype=int)
        model = LogisticRegression(n_classes=2).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (10, 2)
        assert np.all(model.predict(X) == 1)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_unfitted_predict_raises(self, rng):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(rng.standard_normal((3, 2)))

    def test_feature_mismatch_raises(self, rng):
        X, y = _separable_data(rng, n=50)
        model = LogisticRegression().fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(rng.standard_normal((3, X.shape[1] + 1)))

    def test_invalid_C_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0.0)

    def test_nan_C_raises(self):
        with pytest.raises(ValueError, match="C must be positive"):
            LogisticRegression(C=np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_weight_raises(self, rng, bad):
        X, y = _separable_data(rng, n=20)
        weights = np.ones(len(y))
        weights[3] = bad
        with pytest.raises(ValueError, match="sample_weight must be finite"):
            LogisticRegression().fit(X, y, sample_weight=weights)

    def test_zero_total_sample_weight_raises(self, rng):
        X, y = _separable_data(rng, n=20)
        with pytest.raises(ValueError, match="positive total"):
            LogisticRegression().fit(X, y, sample_weight=np.zeros(len(y)))

    def test_decision_function_feature_mismatch_raises(self, rng):
        X, y = _separable_data(rng, n=50)
        model = LogisticRegression().fit(X, y)
        with pytest.raises(ValueError, match="features, model was fitted with"):
            model.decision_function(rng.standard_normal((3, X.shape[1] + 1)))

    def test_negative_labels_raise(self, rng):
        X = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, [-1, 0, 1, 0, 1])

    def test_nan_features_raise(self):
        X = np.array([[np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, [0, 1])


class TestWarmStart:
    def test_warm_probas_match_cold_within_tolerance(self, rng):
        """The objective is convex: the initialiser must not move the optimum."""
        X, y = _separable_data(rng)
        cold = LogisticRegression().fit(X, y)
        warm = LogisticRegression().fit(
            X, y, coef_init=cold.coef_, intercept_init=cold.intercept_
        )
        assert warm.warm_started_
        np.testing.assert_allclose(
            warm.predict_proba(X), cold.predict_proba(X), atol=1e-4
        )

    def test_warm_start_from_earlier_fit_on_grown_data(self, rng):
        """The ActiveDP pattern: refit on a grown pseudo-labelled set."""
        X, y = _separable_data(rng, n=300)
        early = LogisticRegression().fit(X[:150], y[:150])
        warm = LogisticRegression().fit(
            X, y, coef_init=early.coef_, intercept_init=early.intercept_
        )
        cold = LogisticRegression().fit(X, y)
        assert warm.warm_started_
        np.testing.assert_allclose(
            warm.predict_proba(X), cold.predict_proba(X), atol=1e-4
        )

    def test_mismatched_coef_shape_degrades_to_cold(self, rng):
        X, y = _separable_data(rng)
        warm = LogisticRegression().fit(X, y, coef_init=np.zeros((2, 3)))
        cold = LogisticRegression().fit(X, y)
        assert not warm.warm_started_
        np.testing.assert_array_equal(warm.coef_, cold.coef_)

    def test_non_finite_coef_init_degrades_to_cold(self, rng):
        X, y = _separable_data(rng)
        bad = np.full((2, X.shape[1]), np.nan)
        warm = LogisticRegression().fit(X, y, coef_init=bad)
        assert not warm.warm_started_

    def test_single_class_fit_ignores_init(self, rng):
        X = rng.standard_normal((10, 3))
        model = LogisticRegression(n_classes=2).fit(
            X, np.zeros(10, dtype=int), coef_init=np.ones((2, 3))
        )
        assert not model.warm_started_
        np.testing.assert_array_equal(model.coef_, 0.0)

    def test_no_init_reports_cold(self, rng):
        X, y = _separable_data(rng)
        assert not LogisticRegression().fit(X, y).warm_started_
