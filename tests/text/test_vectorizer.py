"""Tests for CountVectorizer and TfidfVectorizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.text import CountVectorizer, TfidfVectorizer
from repro.text.vectorizer import NORM_BLOCK_ROWS, _row_norms

DOCS = [
    "check out my channel for free money",
    "check the new spam filter",
    "what a beautiful song and melody",
    "this song brings back memories",
]


class TestCountVectorizer:
    def test_counts_match_occurrences(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform(["spam spam ham", "ham"])
        names = vectorizer.get_feature_names()
        spam_col = names.index("spam")
        ham_col = names.index("ham")
        assert matrix[0, spam_col] == 2
        assert matrix[0, ham_col] == 1
        assert matrix[1, spam_col] == 0

    def test_binary_mode_caps_at_one(self):
        matrix = CountVectorizer(binary=True).fit_transform(["spam spam spam"])
        assert matrix.max() == 1.0

    def test_unknown_tokens_ignored_at_transform(self):
        vectorizer = CountVectorizer().fit(["known words only"])
        matrix = vectorizer.transform(["completely different vocabulary"])
        assert matrix.sum() == 0.0

    def test_matrix_shape(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform(DOCS)
        assert matrix.shape == (len(DOCS), len(vectorizer.vocabulary_))

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            CountVectorizer().transform(["x"])

    def test_min_df_prunes(self):
        vectorizer = CountVectorizer(min_df=2).fit(DOCS)
        assert "song" in vectorizer.vocabulary_
        assert "melody" not in vectorizer.vocabulary_


class TestTfidfVectorizer:
    def test_rows_are_l2_normalised(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        norms = np.linalg.norm(matrix, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-9)

    def test_rare_terms_have_higher_idf(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        names = vectorizer.get_feature_names()
        idf = vectorizer.idf_
        assert idf[names.index("melody")] > idf[names.index("song")]

    def test_empty_document_row_is_zero(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        matrix = vectorizer.transform([""])
        np.testing.assert_allclose(matrix, 0.0)

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["x"])

    def test_values_non_negative(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        assert matrix.min() >= 0.0


def _unblocked_tfidf(vectorizer, counts):
    """TF-IDF as weighed before the in-place step: three full-size arrays."""
    counts = np.asarray(counts, dtype=float)
    if vectorizer.binary:
        counts = np.minimum(counts, 1.0)
    tfidf = counts * vectorizer.idf_
    norms = np.linalg.norm(tfidf, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return tfidf / norms


def _counts(rng, n_rows, n_terms):
    """Sparse Poisson term counts with every fifth row empty."""
    counts = rng.poisson(0.4, size=(n_rows, n_terms)).astype(float)
    counts[::5] = 0.0
    return counts


N_TERMS = 40


def _fitted(binary):
    """A TF-IDF vectorizer over ``N_TERMS`` terms of distinct IDFs."""
    tokens = [f"t{i}" for i in range(N_TERMS)]
    documents = [tokens] + [tokens[: 1 + i % N_TERMS] for i in range(60)]
    return TfidfVectorizer(binary=binary).fit_tokens(documents)


class TestInPlaceWeighting:
    """The in-place step gives the bits of the allocating formula."""

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, NORM_BLOCK_ROWS - 1, NORM_BLOCK_ROWS, NORM_BLOCK_ROWS + 1, 2 * NORM_BLOCK_ROWS + 37],
    )
    def test_blocked_row_norms_equal_linalg_norm(self, n_rows):
        rng = np.random.default_rng(n_rows)
        matrix = _counts(rng, n_rows, N_TERMS) * rng.random(N_TERMS)

        norms = _row_norms(matrix)

        assert norms.shape == (n_rows,)
        assert np.array_equal(norms, np.linalg.norm(matrix, axis=1))

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("n_rows", [0, 3, 2 * NORM_BLOCK_ROWS + 37])
    def test_weight_counts_equals_the_unblocked_formula(self, binary, n_rows):
        vectorizer = _fitted(binary)
        counts = _counts(np.random.default_rng(7), n_rows, N_TERMS)

        features = vectorizer.weight_counts(counts)

        assert features.tobytes() == _unblocked_tfidf(vectorizer, counts).tobytes()
        assert not features[::5].any()

    @pytest.mark.parametrize("binary", [False, True])
    def test_transform_equals_weight_counts_of_its_counts(self, binary):
        documents = DOCS * (NORM_BLOCK_ROWS // len(DOCS) + 3) + ["", "unknown words"]
        vectorizer = TfidfVectorizer(binary=binary).fit(DOCS)
        counts = CountVectorizer().fit(DOCS).transform(documents)

        features = vectorizer.transform(documents)

        assert features.tobytes() == vectorizer.weight_counts(counts).tobytes()
        assert features.tobytes() == _unblocked_tfidf(vectorizer, counts).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdefg ", min_size=1, max_size=30),
        min_size=2,
        max_size=8,
    )
)
def test_tfidf_rows_unit_or_zero_property(documents):
    """Every TF-IDF row has L2 norm 1 (non-empty doc) or 0 (empty doc)."""
    try:
        matrix = TfidfVectorizer().fit_transform(documents)
    except ValueError:
        # Corpus with no valid tokens at all; nothing to check.
        return
    norms = np.linalg.norm(matrix, axis=1)
    for norm in norms:
        assert norm == pytest.approx(0.0, abs=1e-9) or norm == pytest.approx(1.0, abs=1e-6)
