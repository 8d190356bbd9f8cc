"""The id-based text generator against the string-round-trip oracle.

``reference_text`` keeps the generator that joined every document into a
string and then tokenised and vectorised it again.  The production generator
keeps documents as word ids and must return byte-identical corpora.  It
relies on four numpy stream properties, each pinned below by name, so a
numpy upgrade that breaks one fails here instead of silently changing every
corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import reference_text as reference

from repro.datasets import dataset_names, load_dataset
from repro.datasets.synthetic_text import SyntheticTextConfig, generate_text_dataset

SEEDS = (0, 1, 64)
SCALES = (0.3, 1.0)

# The custom-keyword config of the ``tiny_text_split`` fixture in conftest.py.
CUSTOM_CONFIG = SyntheticTextConfig(
    name="tiny-text",
    n_documents=150,
    signal_words={0: ["good", "great"], 1: ["bad", "awful"]},
    n_signal_words=10,
    signal_strength=0.4,
    noise_strength=0.02,
    n_background_words=60,
    background_words_per_doc=6.0,
)


def _digest(split) -> str:
    """Hash every generated output the oracle comparison pins."""
    sha = hashlib.sha256()
    for part in (split.train, split.valid, split.test):
        sha.update(part.features.tobytes())
        sha.update(np.asarray(part.labels).tobytes())
        sha.update("\n".join(part.texts).encode())
        for tokens in part.token_sets:
            sha.update(" ".join(sorted(tokens)).encode() + b"\n")
    vectorizer = split.metadata["vectorizer"]
    vocab = vectorizer.vocabulary_
    sha.update(" ".join(vocab.tokens).encode())
    sha.update(repr([vocab.document_frequency[t] for t in vocab.tokens]).encode())
    sha.update(vectorizer.idf_.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", dataset_names("text"))
def test_registry_corpora_match_the_oracle(name, seed, scale):
    split = load_dataset(name, scale=scale, random_state=seed)
    expected = reference.generate_text_dataset(split.metadata["config"], random_state=seed)
    assert _digest(split) == _digest(expected)


def test_wide_corpus_matches_the_oracle():
    """The imdb corpus at 6x scale, the size of the ``trial-wide`` workload."""
    split = load_dataset("imdb", scale=6.0, random_state=66)
    expected = reference.generate_text_dataset(split.metadata["config"], random_state=66)
    assert _digest(split) == _digest(expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "config",
    [CUSTOM_CONFIG, SyntheticTextConfig(n_documents=40, valid_fraction=0.0)],
    ids=["custom-keywords", "empty-valid-split"],
)
def test_custom_corpus_matches_the_oracle(config, seed):
    assert _digest(generate_text_dataset(config, random_state=seed)) == _digest(
        reference.generate_text_dataset(config, random_state=seed)
    )


@pytest.mark.parametrize("name", ["youtube", "bios-jp"])
def test_stored_vectorizer_reproduces_the_features(name):
    split = load_dataset(name, scale=0.3, random_state=3)
    vectorizer = split.metadata["vectorizer"]
    for part in (split.train, split.valid, split.test):
        assert vectorizer.transform(part.texts).tobytes() == part.features.tobytes()


def test_consecutive_random_draws_equal_one_long_draw():
    first, second = np.random.default_rng(5), np.random.default_rng(5)
    split_draws = np.concatenate((first.random(7), first.random(11)))
    assert split_draws.tobytes() == second.random(18).tobytes()


def test_shuffle_of_int_array_matches_shuffle_of_list():
    first, second = np.random.default_rng(5), np.random.default_rng(5)
    for size in (1, 2, 17, 40):
        words = [f"w{i}" for i in range(size)]
        ids = np.arange(size, dtype=np.intp)
        first.shuffle(words)
        second.shuffle(ids)
        assert words == [f"w{i}" for i in ids]


def test_choice_of_range_picks_the_same_indices_as_choice_of_list():
    weights = 1.0 / np.arange(1, 31)
    weights /= weights.sum()
    words = [f"w{i}" for i in range(30)]
    first, second = np.random.default_rng(5), np.random.default_rng(5)
    for size in (1, 9, 25):
        picked = first.choice(words, size=size, p=weights).tolist()
        indices = second.choice(len(words), size=size, p=weights)
        assert picked == [words[i] for i in indices]


def test_weighted_choice_equals_a_search_of_its_cdf():
    """``choice(n, size=k, p=w)`` is ``cdf.searchsorted(random(k), side="right")``.

    The generator draws background words through the CDF, built once per
    corpus, instead of calling ``choice`` (which rebuilds it) per document.
    """
    # The registry's background vocabulary (300 words).
    n_words = load_dataset("youtube", scale=0.3).metadata["config"].n_background_words
    weights = 1.0 / np.arange(1, n_words + 1)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    first, second = np.random.default_rng(5), np.random.default_rng(5)
    for size in (1, 9, 25):
        picked = first.choice(n_words, size=size, p=weights)
        searched = cdf.searchsorted(second.random(size), side="right")
        assert picked.tolist() == searched.tolist()
        assert first.bit_generator.state == second.bit_generator.state
