"""Benchmark dataset registry mirroring Table 2 of the paper.

Each :class:`DatasetProfile` records the paper's dataset statistics (task and
train/valid/test sizes from Table 2) together with the synthetic generator
configuration used as the offline stand-in.  ``load_dataset(name)`` builds
the synthetic :class:`~repro.datasets.base.DataSplit`; the ``scale`` argument
shrinks or grows the generated corpus relative to the profile's default size
so benchmarks stay fast while the paper-scale protocol remains reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.datasets.base import DataSplit
from repro.datasets.synthetic_tabular import SyntheticTabularConfig, generate_tabular_dataset
from repro.datasets.synthetic_text import SyntheticTextConfig, generate_text_dataset
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class DatasetProfile:
    """Registry entry describing one benchmark dataset.

    Attributes
    ----------
    name:
        Registry key (lowercase, e.g. ``"youtube"``).
    task:
        Task description, as reported in Table 2.
    kind:
        ``"text"`` or ``"tabular"``.
    paper_train, paper_valid, paper_test:
        Split sizes reported in Table 2 of the paper.
    default_size:
        Total synthetic instances generated at ``scale=1.0``.
    difficulty:
        Separation knob passed to the generator (higher = easier).
    class_balance:
        Class prior used by the generator.
    """

    name: str
    task: str
    kind: str
    paper_train: int
    paper_valid: int
    paper_test: int
    default_size: int
    difficulty: float
    class_balance: tuple[float, float] = (0.5, 0.5)


_SPAM_WORDS = [
    "check", "subscribe", "channel", "free", "click", "visit", "follow",
    "money", "win", "giveaway", "promo", "link", "earn", "cash", "offer",
]
_HAM_WORDS = [
    "song", "love", "music", "video", "best", "beautiful", "voice", "amazing",
    "remember", "childhood", "classic", "melody", "lyrics", "favorite", "great",
]
_POSITIVE_WORDS = [
    "excellent", "wonderful", "amazing", "delicious", "perfect", "loved",
    "fantastic", "awesome", "brilliant", "enjoyable", "recommend", "superb",
    "charming", "delightful", "satisfying",
]
_NEGATIVE_WORDS = [
    "terrible", "awful", "horrible", "waste", "boring", "disappointing",
    "worst", "bland", "rude", "broken", "refund", "mediocre", "annoying",
    "poor", "dull",
]
_PROFESSOR_WORDS = [
    "professor", "research", "university", "phd", "lecture", "publications",
    "faculty", "grant", "laboratory", "thesis", "conference", "scholar",
    "tenure", "seminar", "journal",
]
_TEACHER_WORDS = [
    "teacher", "classroom", "students", "school", "curriculum", "elementary",
    "grade", "lesson", "teaching", "kindergarten", "homework", "pupils",
    "literacy", "tutoring", "education",
]
_JOURNALIST_WORDS = [
    "journalist", "reporter", "news", "editor", "newspaper", "coverage",
    "investigative", "press", "column", "stories", "broadcast", "media",
    "correspondent", "editorial", "interview",
]
_PHOTOGRAPHER_WORDS = [
    "photographer", "camera", "portrait", "wedding", "studio", "lens",
    "photography", "shoot", "exhibition", "landscape", "prints", "editorial",
    "lighting", "gallery", "images",
]


DATASET_PROFILES: dict[str, DatasetProfile] = {
    "youtube": DatasetProfile(
        name="youtube", task="Spam classification", kind="text",
        paper_train=1566, paper_valid=195, paper_test=195,
        default_size=800, difficulty=1.3,
    ),
    "imdb": DatasetProfile(
        name="imdb", task="Sentiment analysis", kind="text",
        paper_train=20000, paper_valid=2500, paper_test=2500,
        default_size=1200, difficulty=0.9,
    ),
    "yelp": DatasetProfile(
        name="yelp", task="Sentiment analysis", kind="text",
        paper_train=20000, paper_valid=2500, paper_test=2500,
        default_size=1200, difficulty=0.8,
    ),
    "amazon": DatasetProfile(
        name="amazon", task="Sentiment analysis", kind="text",
        paper_train=20000, paper_valid=2500, paper_test=2500,
        default_size=1200, difficulty=0.7,
    ),
    "bios-pt": DatasetProfile(
        name="bios-pt", task="Biography classification", kind="text",
        paper_train=19672, paper_valid=2458, paper_test=2458,
        default_size=1200, difficulty=1.1,
    ),
    "bios-jp": DatasetProfile(
        name="bios-jp", task="Biography classification", kind="text",
        paper_train=25808, paper_valid=3225, paper_test=3225,
        default_size=1200, difficulty=1.2,
    ),
    "occupancy": DatasetProfile(
        name="occupancy", task="Occupancy prediction", kind="tabular",
        paper_train=14317, paper_valid=1789, paper_test=1789,
        default_size=1200, difficulty=3.5, class_balance=(0.65, 0.35),
    ),
    "census": DatasetProfile(
        name="census", task="Income classification", kind="tabular",
        paper_train=25541, paper_valid=3192, paper_test=3192,
        default_size=1200, difficulty=2.0, class_balance=(0.7, 0.3),
    ),
}

_TEXT_SIGNAL_WORDS: dict[str, dict[int, list[str]]] = {
    "youtube": {1: _SPAM_WORDS, 0: _HAM_WORDS},
    "imdb": {1: _POSITIVE_WORDS, 0: _NEGATIVE_WORDS},
    "yelp": {1: _POSITIVE_WORDS, 0: _NEGATIVE_WORDS},
    "amazon": {1: _POSITIVE_WORDS, 0: _NEGATIVE_WORDS},
    "bios-pt": {0: _PROFESSOR_WORDS, 1: _TEACHER_WORDS},
    "bios-jp": {0: _JOURNALIST_WORDS, 1: _PHOTOGRAPHER_WORDS},
}

_TABULAR_FEATURE_NAMES: dict[str, list[str]] = {
    "occupancy": ["light", "temperature", "co2", "humidity", "humidity_ratio", "hour", "noise_a"],
    "census": [
        "age", "education_num", "hours_per_week", "capital_gain", "capital_loss",
        "occupation_code", "marital_code", "relationship_code", "noise_a", "noise_b",
    ],
}


def dataset_names(kind: str | None = None) -> list[str]:
    """Return the registry keys, optionally filtered by ``kind``."""
    if kind is None:
        return list(DATASET_PROFILES)
    if kind not in ("text", "tabular"):
        raise ValueError("kind must be None, 'text' or 'tabular'")
    return [name for name, profile in DATASET_PROFILES.items() if profile.kind == kind]


def load_dataset(
    name: str,
    scale: float = 1.0,
    random_state: RandomState = 0,
) -> DataSplit:
    """Generate the synthetic stand-in for benchmark dataset *name*.

    Parameters
    ----------
    name:
        One of :func:`dataset_names` (case-insensitive).
    scale:
        Multiplier on the profile's default synthetic size (``scale=1.0``
        generates ``default_size`` instances before the 80/10/10 split);
        finite and positive.
    random_state:
        Seed for the generator; the same seed always yields the same corpus.
    """
    key = name.lower()
    if key not in DATASET_PROFILES:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASET_PROFILES)}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    profile = DATASET_PROFILES[key]
    total = max(int(round(profile.default_size * scale)), 50)

    if profile.kind == "text":
        config = SyntheticTextConfig(
            name=profile.name,
            task=profile.task,
            n_documents=total,
            class_balance=profile.class_balance,
            signal_words=_TEXT_SIGNAL_WORDS[key],
            n_signal_words=30,
            signal_strength=min(0.26 * profile.difficulty, 0.6),
            noise_strength=0.06 / (1.0 + 2.0 * profile.difficulty),
            n_background_words=300,
            background_words_per_doc=10.0,
            max_features=2500,
        )
        split = generate_text_dataset(config, random_state=random_state)
    else:
        feature_names = _TABULAR_FEATURE_NAMES[key]
        n_noise = sum(1 for f in feature_names if f.startswith("noise"))
        config = SyntheticTabularConfig(
            name=profile.name,
            task=profile.task,
            n_samples=total,
            n_informative=len(feature_names) - n_noise,
            n_noise=n_noise,
            separation=profile.difficulty,
            class_balance=profile.class_balance,
            correlated_noise=0.3 if key == "census" else 0.15,
            feature_names=feature_names,
        )
        split = generate_tabular_dataset(config, random_state=random_state)

    split.metadata["profile"] = profile
    return split


def dataset_summary(split: DataSplit) -> dict:
    """Return a Table-2-style summary row for a generated :class:`DataSplit`."""
    profile: DatasetProfile | None = split.metadata.get("profile")
    n_train, n_valid, n_test = split.sizes()
    summary = {
        "name": split.name,
        "task": split.task,
        "kind": split.kind,
        "n_train": n_train,
        "n_valid": n_valid,
        "n_test": n_test,
        "n_classes": split.n_classes,
        "n_features": split.train.n_features,
    }
    if profile is not None:
        summary.update(
            paper_train=profile.paper_train,
            paper_valid=profile.paper_valid,
            paper_test=profile.paper_test,
        )
    return summary
