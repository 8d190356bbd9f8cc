"""Tests for the synthetic text and tabular dataset generators."""

import numpy as np
import pytest

from repro.datasets.synthetic_tabular import SyntheticTabularConfig, generate_tabular_dataset
from repro.datasets.synthetic_text import SyntheticTextConfig, generate_text_dataset
from repro.models import LogisticRegression


class TestTextGenerator:
    def test_split_fractions(self):
        config = SyntheticTextConfig(n_documents=200)
        split = generate_text_dataset(config, random_state=0)
        n_train, n_valid, n_test = split.sizes()
        assert n_train + n_valid + n_test == 200
        assert abs(n_valid - 20) <= 2 and abs(n_test - 20) <= 2

    def test_reproducible_with_same_seed(self):
        config = SyntheticTextConfig(n_documents=100)
        first = generate_text_dataset(config, random_state=5)
        second = generate_text_dataset(config, random_state=5)
        assert first.train.texts == second.train.texts
        np.testing.assert_array_equal(first.train.labels, second.train.labels)

    def test_different_seeds_differ(self):
        config = SyntheticTextConfig(n_documents=100)
        first = generate_text_dataset(config, random_state=1)
        second = generate_text_dataset(config, random_state=2)
        assert first.train.texts != second.train.texts

    def test_signal_words_are_class_correlated(self):
        config = SyntheticTextConfig(
            n_documents=400,
            signal_words={0: ["alpha"], 1: ["omega"]},
            signal_strength=0.5,
            noise_strength=0.02,
        )
        split = generate_text_dataset(config, random_state=0)
        train = split.train
        contains_alpha = np.array(["alpha" in tokens for tokens in train.token_sets])
        if contains_alpha.any():
            # Documents containing the class-0 keyword are mostly class 0.
            assert np.mean(train.labels[contains_alpha] == 0) > 0.75

    def test_generated_tokens_survive_tokenisation(self):
        config = SyntheticTextConfig(n_documents=100, n_signal_words=20)
        split = generate_text_dataset(config, random_state=0)
        signal_words = split.metadata["signal_words"]
        all_tokens = set()
        for tokens in split.train.token_sets:
            all_tokens |= tokens
        generated = [w for words in signal_words.values() for w in words if w.startswith("sig")]
        present = sum(1 for w in generated if w in all_tokens)
        assert present > len(generated) * 0.5

    def test_dataset_is_learnable(self):
        config = SyntheticTextConfig(n_documents=400)
        split = generate_text_dataset(config, random_state=0)
        model = LogisticRegression().fit(split.train.features, split.train.labels)
        assert model.score(split.test.features, split.test.labels) > 0.7

    def test_class_balance_respected(self):
        config = SyntheticTextConfig(n_documents=600, class_balance=(0.8, 0.2))
        split = generate_text_dataset(config, random_state=0)
        balance = split.train.class_balance()
        assert balance[0] > 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_documents": 5},
            {"signal_strength": 0.0},
            {"noise_strength": 0.9, "signal_strength": 0.5},
            {"class_balance": (1.0,)},
            {"signal_words": {0: ["The"]}},
            {"signal_words": {0: ["the"]}},
            {"signal_words": {1: ["x"]}},
            {"signal_words": {1: ["co2"]}},
            {"n_signal_words": 26**3 + 1},
            {"n_ambiguous_words": 26**3 + 1},
            {"n_background_words": 26**3 + 1},
            {"n_background_words": 0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticTextConfig(**kwargs)


class TestTabularGenerator:
    def test_split_sizes(self):
        config = SyntheticTabularConfig(n_samples=300)
        split = generate_tabular_dataset(config, random_state=0)
        assert sum(split.sizes()) == 300

    def test_reproducibility(self):
        config = SyntheticTabularConfig(n_samples=100)
        first = generate_tabular_dataset(config, random_state=3)
        second = generate_tabular_dataset(config, random_state=3)
        np.testing.assert_array_equal(first.train.raw_features, second.train.raw_features)

    def test_informative_features_separate_classes(self):
        config = SyntheticTabularConfig(n_samples=600, separation=3.0, n_informative=2, n_noise=1)
        split = generate_tabular_dataset(config, random_state=0)
        train = split.train
        means_0 = train.raw_features[train.labels == 0, 0].mean()
        means_1 = train.raw_features[train.labels == 1, 0].mean()
        assert abs(means_0 - means_1) > 0.5

    def test_scaled_features_standardised_on_train(self):
        config = SyntheticTabularConfig(n_samples=400)
        split = generate_tabular_dataset(config, random_state=0)
        np.testing.assert_allclose(split.train.features.mean(axis=0), 0.0, atol=0.1)

    def test_dataset_is_learnable(self):
        config = SyntheticTabularConfig(n_samples=500, separation=2.5)
        split = generate_tabular_dataset(config, random_state=0)
        model = LogisticRegression().fit(split.train.features, split.train.labels)
        assert model.score(split.test.features, split.test.labels) > 0.75

    def test_feature_names_propagated(self):
        config = SyntheticTabularConfig(
            n_samples=100, n_informative=2, n_noise=1,
            feature_names=["temp", "light", "noise"],
        )
        split = generate_tabular_dataset(config, random_state=0)
        assert split.train.feature_names == ["temp", "light", "noise"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_samples": 5}, {"n_informative": 0}, {"n_noise": -1}, {"separation": 0.0}],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticTabularConfig(**kwargs)
