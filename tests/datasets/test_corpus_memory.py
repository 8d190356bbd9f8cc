"""A text split's TF-IDF features are weighed in the buffer they were counted in.

``build_split`` counts a split's terms into one owned float matrix and the
vectorizer weighs it in place, so building a split holds little more than
the split itself.  ``tracemalloc`` sees every numpy allocation, so its peak
measures the live arrays, not the heap layout that ``ru_maxrss`` also
reflects.
"""

import tracemalloc

import numpy as np

from repro.datasets import load_dataset
from repro.utils.validation import _is_frozen_finite, freeze_finite


def _traced_build(name, scale, seed):
    """Return the split and its build's peak above what it leaves live."""
    load_dataset(name, 0.05, seed)  # imports and one-off caches stay out
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        split = load_dataset(name, scale, seed)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return split, peak - live


def test_the_imdb_build_peaks_close_to_its_live_bytes():
    # Weighing an unowned count matrix held the counts, their IDF product
    # and the norm's squares at once: ~2 x the train features above live.
    split, over_live = _traced_build("imdb", 6.0, 64)

    assert over_live <= 0.5 * split.train.features.nbytes


def test_weight_counts_leaves_its_argument_and_returns_an_owned_array(text_split):
    vectorizer = text_split.metadata["vectorizer"]
    counts = np.zeros((7, len(vectorizer.vocabulary_)))
    counts[:, :5] = np.arange(35.0).reshape(7, 5)
    counts[3] = 0.0
    before = counts.copy()

    features = vectorizer.weight_counts(counts)

    assert np.array_equal(counts, before)
    assert features.base is None and not np.shares_memory(features, counts)
    freeze_finite(features)
    assert _is_frozen_finite(features)


def test_weight_counts_takes_read_only_and_integer_counts(text_split):
    vectorizer = text_split.metadata["vectorizer"]
    presence = text_split.train.features > 0
    read_only = presence.astype(float)
    read_only.flags.writeable = False

    from_float = vectorizer.weight_counts(read_only)
    from_integer = vectorizer.weight_counts(presence.astype(np.int64))

    assert from_float.flags.writeable and from_float.dtype == float
    assert from_float.tobytes() == from_integer.tobytes()
