"""Synthetic text-classification corpora.

The real benchmark corpora (Youtube Spam, IMDB, Yelp, Amazon, Bios-PT,
Bios-JP) are not available offline, so each is replaced by a seeded generative
process with the same *structure* the paper's labelling dynamics rely on:

* every class has a pool of **signal keywords** that occur much more often in
  documents of that class than in the other classes, so keyword label
  functions with accuracy above the paper's 0.6 threshold exist and differ in
  coverage and precision;
* documents also contain **background words** drawn from a Zipf-like
  distribution that carry no class signal, so TF-IDF features are
  high-dimensional and noisy exactly like real text;
* per-keyword occurrence rates vary, so some user-returned LFs are much more
  useful than others — the regime LabelPick is designed for.

Class separability (``signal_strength`` vs ``noise_strength`` and the number
of signal words) is tuned per dataset profile in the registry so the relative
difficulty ordering of the paper's datasets (Youtube easy, Yelp/Amazon harder,
Bios in between) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import DataSplit, TextDataset
from repro.models.model_selection import train_valid_test_split
from repro.text.tokenizer import tokenize
from repro.text.vectorizer import TfidfVectorizer
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class SyntheticTextConfig:
    """Parameters of the synthetic text generator.

    Attributes
    ----------
    name, task:
        Identifier and task description (propagated into the DataSplit).
    n_documents:
        Total number of documents before the 80/10/10 split.
    n_classes:
        Number of classes (all paper datasets are binary).
    class_balance:
        Prior over classes; ``None`` means uniform.
    signal_words:
        Mapping class -> list of keywords that indicate the class.  When
        empty, ``n_signal_words`` synthetic keywords per class are generated.
        Each keyword must come out of :func:`~repro.text.tokenizer.tokenize`
        unchanged: lowercase letters only, at least two, not a stop word.
    n_signal_words:
        Number of signal keywords generated per class when ``signal_words``
        does not provide them.  This and the other two word counts are at
        most 26**3, the number of distinct generated names.
    signal_strength:
        Peak probability that a signal keyword appears in a document of its
        own class (individual keywords get decayed versions of this value).
    noise_strength:
        Probability that a signal keyword appears in a document of another
        class (controls LF precision / task difficulty).
    n_ambiguous_words:
        Number of *ambiguous* keywords per class: words that lean toward one
        class only moderately (accuracy just above the simulated user's 0.6
        threshold) but occur in documents of both classes.  Real corpora are
        full of such words; they are what makes the paper's label-noise
        mechanism (an accurate-overall LF that misfires on its query
        instance, Section 4.3.3) possible.
    ambiguous_strength:
        Occurrence probability of an ambiguous keyword in documents of its
        leaning class; the other class sees it at 55 % of this rate, giving
        LF accuracies around 0.62-0.67.
    n_background_words:
        Size of the class-independent background vocabulary (at least 1).
    background_words_per_doc:
        Mean number of background tokens per document (Poisson).
    max_features:
        Cap on the TF-IDF vocabulary.
    valid_fraction, test_fraction:
        Split fractions (paper: 0.1 / 0.1).
    """

    name: str = "synthetic-text"
    task: str = "Text classification"
    n_documents: int = 1000
    n_classes: int = 2
    class_balance: tuple[float, ...] | None = None
    signal_words: dict[int, list[str]] = field(default_factory=dict)
    n_signal_words: int = 30
    signal_strength: float = 0.35
    noise_strength: float = 0.04
    n_ambiguous_words: int = 8
    ambiguous_strength: float = 0.15
    n_background_words: int = 400
    background_words_per_doc: float = 12.0
    max_features: int = 3000
    valid_fraction: float = 0.1
    test_fraction: float = 0.1

    def __post_init__(self):
        if self.n_documents < 10:
            raise ValueError("n_documents must be at least 10")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not 0 < self.signal_strength <= 1:
            raise ValueError("signal_strength must be in (0, 1]")
        if not 0 <= self.noise_strength < self.signal_strength:
            raise ValueError("noise_strength must be in [0, signal_strength)")
        if self.class_balance is not None:
            balance = np.asarray(self.class_balance, dtype=float)
            if balance.shape != (self.n_classes,):
                raise ValueError("class_balance must have one entry per class")
            if np.any(balance <= 0):
                raise ValueError("class_balance entries must be positive")
        for count in ("n_signal_words", "n_ambiguous_words", "n_background_words"):
            if getattr(self, count) > _MAX_GENERATED_WORDS:
                raise ValueError(f"{count} must be at most {_MAX_GENERATED_WORDS}")
        if self.n_background_words < 1:
            raise ValueError("n_background_words must be at least 1")
        for words in self.signal_words.values():
            for word in words:
                if tokenize(word) != [word]:
                    raise ValueError(
                        f"signal word {word!r} is not a token: use lowercase letters "
                        "only, at least two of them, and no stop word"
                    )


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# Generated names end in a three-letter suffix, so each kind has 26**3.
_MAX_GENERATED_WORDS = 26**3


def _alpha_suffix(index: int, length: int = 3) -> str:
    """Encode *index* as a fixed-length lowercase-letter string (base 26).

    Generated tokens must be purely alphabetic so the word tokeniser keeps
    them intact (digits would be stripped and distinct words would collide).
    """
    letters = []
    for _ in range(length):
        letters.append(_ALPHABET[index % 26])
        index //= 26
    return "".join(reversed(letters))


def _build_signal_words(config: SyntheticTextConfig) -> dict[int, list[str]]:
    """Return the per-class signal keyword lists, generating names if needed."""
    words: dict[int, list[str]] = {}
    for cls in range(config.n_classes):
        provided = list(config.signal_words.get(cls, []))
        needed = max(config.n_signal_words - len(provided), 0)
        class_tag = _ALPHABET[cls % 26]
        generated = [f"sig{class_tag}{_alpha_suffix(i)}" for i in range(needed)]
        words[cls] = provided + generated
    return words


def _build_ambiguous_words(config: SyntheticTextConfig) -> dict[int, list[str]]:
    """Per-class ambiguous keywords (moderately correlated with their class)."""
    words: dict[int, list[str]] = {}
    for cls in range(config.n_classes):
        class_tag = _ALPHABET[cls % 26]
        words[cls] = [
            f"amb{class_tag}{_alpha_suffix(i)}" for i in range(config.n_ambiguous_words)
        ]
    return words


def _background_vocabulary(config: SyntheticTextConfig) -> list[str]:
    return [f"filler{_alpha_suffix(i)}" for i in range(config.n_background_words)]


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

    Each document is an array of word ids until the end: token sets, the
    vocabulary and the term counts are built from the ids, and words are
    joined into strings only for ``texts``.  Background words are drawn by
    searching one Zipf CDF built per corpus.  The config guarantees every
    word survives :func:`~repro.text.tokenizer.tokenize` unchanged, so the
    features equal what the stored vectorizer computes from those texts.
    """
    rng = ensure_rng(random_state)
    signal_words = _build_signal_words(config)
    ambiguous_words = _build_ambiguous_words(config)
    background = _background_vocabulary(config)

    # One id per distinct word: a word listed under two classes (or colliding
    # with a generated name) occupies two slots that share an id.
    word_ids: dict[str, int] = {}

    def ids_of(words: list[str]) -> np.ndarray:
        return np.array([word_ids.setdefault(w, len(word_ids)) for w in words], dtype=np.intp)

    balance = (
        np.asarray(config.class_balance, dtype=float)
        if config.class_balance is not None
        else np.full(config.n_classes, 1.0)
    )
    balance = balance / balance.sum()

    # Per-keyword occurrence probability decays with keyword rank so LFs have
    # a spread of coverages (a handful of frequent keywords, a long tail).
    keyword_probs = {
        cls: config.signal_strength * np.power(0.95, np.arange(len(words)))
        for cls, words in signal_words.items()
    }

    def slot_thresholds(label: int) -> np.ndarray:
        """Each slot's occurrence probability in a document of class *label*."""
        signal = [
            keyword_probs[cls] if cls == label else np.full(len(words), config.noise_strength)
            for cls, words in signal_words.items()
        ]
        ambiguous = [
            np.full(
                len(words),
                config.ambiguous_strength if cls == label else 0.55 * config.ambiguous_strength,
            )
            for cls, words in ambiguous_words.items()
        ]
        return np.concatenate(signal + ambiguous)

    # A document's slots are every class's signal keywords, then every
    # class's ambiguous keywords, in class order; one ``rng.random`` draw
    # covers them all.
    slot_ids = ids_of(
        [w for group in (*signal_words.values(), *ambiguous_words.values()) for w in group]
    )
    thresholds = np.array([slot_thresholds(label) for label in range(config.n_classes)])
    background_ids = ids_of(background)
    word_of = list(word_ids)

    # Zipf weights over the background vocabulary, as the CDF that
    # ``Generator.choice(n, size=k, p=weights)`` builds on every call: it
    # draws ``cdf.searchsorted(random(k), side="right")``, so drawing that
    # directly consumes the same stream and picks the same words.
    background_weights = 1.0 / np.arange(1, len(background) + 1)
    background_weights /= background_weights.sum()
    background_cdf = background_weights.cumsum()
    background_cdf /= background_cdf[-1]

    labels = rng.choice(config.n_classes, size=config.n_documents, p=balance)
    documents: list[np.ndarray] = []
    for label in labels:
        ids = slot_ids[rng.random(slot_ids.size) < thresholds[label]]
        n_background = rng.poisson(config.background_words_per_doc)
        if n_background > 0:
            chosen = background_cdf.searchsorted(rng.random(n_background), side="right")
            ids = np.concatenate((ids, background_ids[chosen]))
        if ids.size == 0:
            ids = background_ids[[rng.integers(len(background))]]
        rng.shuffle(ids)
        documents.append(ids)

    train_idx, valid_idx, test_idx = train_valid_test_split(
        config.n_documents,
        valid_fraction=config.valid_fraction,
        test_fraction=config.test_fraction,
        stratify=labels,
        random_state=rng,
    )

    doc_words = [[word_of[i] for i in ids.tolist()] for ids in documents]
    token_sets = [frozenset(tokens) for tokens in doc_words]
    vectorizer = TfidfVectorizer(min_df=2, max_features=config.max_features)
    vectorizer.fit_tokens([token_sets[i] for i in train_idx])
    vocab = vectorizer.vocabulary_
    column_of = np.full(len(word_of), -1, dtype=np.intp)
    column_of[[word_ids[token] for token in vocab.tokens]] = np.arange(len(vocab))

    def build_split(indices: np.ndarray, split_name: str) -> TextDataset:
        n_vocab = len(vocab)
        parts = [documents[i] for i in indices]
        rows = np.repeat(np.arange(len(parts)), [part.size for part in parts])
        columns = column_of[np.concatenate(parts)] if parts else np.zeros(0, dtype=np.intp)
        known = columns >= 0
        cells = rows[known] * n_vocab + columns[known]
        # Counted as floats into one owned buffer, which the vectorizer
        # weighs in place into the split's features: at the corpus's memory
        # peak that buffer is the only documents x vocabulary array, next
        # to one block of squared rows for the norms.  It owns its data, so
        # ``Dataset`` can freeze it read-only.
        counts = np.zeros((len(parts), n_vocab))
        np.add.at(counts.reshape(-1), cells, 1.0)
        return TextDataset(
            [" ".join(doc_words[i]) for i in indices],
            [token_sets[i] for i in indices],
            vectorizer._weigh_in_place(counts),
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
