"""The string-round-trip text generator, kept as a test oracle.

A verbatim copy of ``repro.datasets.synthetic_text.generate_text_dataset``
from before it kept documents as word ids: every document is joined into a
string, then tokenised and TF-IDF-vectorised again.  The production
generator must return byte-identical corpora; ``test_text_oracle.py``
compares digests of both.  The word-name helpers are shared, not copied.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import DataSplit, TextDataset
from repro.datasets.synthetic_text import (
    SyntheticTextConfig,
    _background_vocabulary,
    _build_ambiguous_words,
    _build_signal_words,
)
from repro.models.model_selection import train_valid_test_split
from repro.text.tokenizer import tokenize
from repro.text.vectorizer import TfidfVectorizer
from repro.utils.rng import RandomState, ensure_rng


def generate_text_dataset(
    config: SyntheticTextConfig,
    random_state: RandomState = 0,
) -> DataSplit:
    """Generate a synthetic text classification :class:`DataSplit`.

    The generator draws a class for every document, inserts class signal
    keywords with per-keyword decayed probabilities, sprinkles in signal
    keywords of *other* classes at ``noise_strength`` (these are what make
    some candidate LFs fall below the accuracy threshold), and pads the
    document with Zipf-distributed background words.  TF-IDF features are
    fitted on the training split only.
    """
    rng = ensure_rng(random_state)
    signal_words = _build_signal_words(config)
    ambiguous_words = _build_ambiguous_words(config)
    background = _background_vocabulary(config)

    balance = (
        np.asarray(config.class_balance, dtype=float)
        if config.class_balance is not None
        else np.full(config.n_classes, 1.0)
    )
    balance = balance / balance.sum()

    # Per-keyword occurrence probability decays with keyword rank so LFs have
    # a spread of coverages (a handful of frequent keywords, a long tail).
    keyword_probs: dict[int, np.ndarray] = {}
    for cls, words in signal_words.items():
        ranks = np.arange(len(words))
        keyword_probs[cls] = config.signal_strength * np.power(0.95, ranks)

    # Zipf weights over the background vocabulary.
    background_weights = 1.0 / np.arange(1, len(background) + 1)
    background_weights /= background_weights.sum()

    labels = rng.choice(config.n_classes, size=config.n_documents, p=balance)
    documents: list[str] = []
    for label in labels:
        tokens: list[str] = []
        for cls in range(config.n_classes):
            probs = keyword_probs[cls] if cls == label else np.full(
                len(signal_words[cls]), config.noise_strength
            )
            fires = rng.random(len(probs)) < probs
            tokens.extend(word for word, fire in zip(signal_words[cls], fires) if fire)
        for cls in range(config.n_classes):
            rate = (
                config.ambiguous_strength
                if cls == label
                else 0.55 * config.ambiguous_strength
            )
            fires = rng.random(len(ambiguous_words[cls])) < rate
            tokens.extend(
                word for word, fire in zip(ambiguous_words[cls], fires) if fire
            )
        n_background = rng.poisson(config.background_words_per_doc)
        if n_background > 0:
            tokens.extend(
                rng.choice(background, size=n_background, p=background_weights).tolist()
            )
        if not tokens:
            tokens = [background[int(rng.integers(len(background)))]]
        rng.shuffle(tokens)
        documents.append(" ".join(tokens))

    train_idx, valid_idx, test_idx = train_valid_test_split(
        config.n_documents,
        valid_fraction=config.valid_fraction,
        test_fraction=config.test_fraction,
        stratify=labels,
        random_state=rng,
    )

    vectorizer = TfidfVectorizer(min_df=2, max_features=config.max_features)
    train_texts = [documents[i] for i in train_idx]
    vectorizer.fit(train_texts)

    def build_split(indices: np.ndarray, split_name: str) -> TextDataset:
        texts = [documents[i] for i in indices]
        token_sets = [frozenset(tokenize(text)) for text in texts]
        features = vectorizer.transform(texts)
        return TextDataset(
            texts,
            token_sets,
            features,
            labels[indices],
            config.n_classes,
            name=f"{config.name}/{split_name}",
        )

    metadata = {
        "signal_words": signal_words,
        "ambiguous_words": ambiguous_words,
        "vectorizer": vectorizer,
        "class_balance": balance.tolist(),
        "config": config,
    }
    return DataSplit(
        name=config.name,
        task=config.task,
        kind="text",
        train=build_split(train_idx, "train"),
        valid=build_split(valid_idx, "valid"),
        test=build_split(test_idx, "test"),
        metadata=metadata,
    )
