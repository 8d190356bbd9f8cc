"""Tests for the vote-pattern compression and the EM that runs over it.

``vote_patterns`` must group rows exactly (the reference grouping here is
``np.unique(axis=0)``, which production never calls), including at the
block width, across blocks and on degenerate shapes.  The pattern EM must
agree with the full-row oracle in ``reference_em`` to 1e-12 with the same
iteration count, and ``fit_predict_proba`` must hand back exactly what
``predict_proba`` computes.
"""

import numpy as np
import pytest
import reference_em

from repro.label_models import GenerativeLabelModel, MeTaLLabelModel
from repro.labeling.lf import ABSTAIN
from repro.numerics.em import block_width, vote_patterns

MODELS = {"generative": GenerativeLabelModel, "metal": MeTaLLabelModel}


def _duplicated_votes(rng, n_rows, n_cols, n_classes, n_distinct):
    """*n_rows* rows drawn from *n_distinct* random vote rows."""
    distinct = rng.integers(-1, n_classes, size=(n_distinct, n_cols))
    return distinct[rng.integers(0, n_distinct, size=n_rows)]


def _assert_exact_grouping(matrix, n_classes):
    patterns, inverse, counts = vote_patterns(matrix, n_classes)
    np.testing.assert_array_equal(patterns[inverse], matrix)
    assert counts.sum() == matrix.shape[0]
    np.testing.assert_array_equal(counts, np.bincount(inverse, minlength=len(counts)))
    assert len(patterns) == len(np.unique(matrix, axis=0))
    return patterns, inverse, counts


class TestBlockWidth:
    @pytest.mark.parametrize("n_classes,width", [(2, 39), (3, 31), (4, 26)])
    def test_widest_block_that_fits_62_bits(self, n_classes, width):
        assert block_width(n_classes) == width
        assert (n_classes + 1) ** width <= 2**62 < (n_classes + 1) ** (width + 1)


class TestVotePatterns:
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_exact_grouping_at_the_block_width(self, n_classes):
        rng = np.random.default_rng(n_classes)
        width = block_width(n_classes)
        matrix = _duplicated_votes(rng, 400, width, n_classes, 60)
        # The largest and smallest keys of the block, and rows one vote apart.
        matrix[0] = n_classes - 1
        matrix[1] = ABSTAIN
        matrix[2] = matrix[3]
        matrix[2, -1] = (matrix[3, -1] + 2) % (n_classes + 1) - 1
        _assert_exact_grouping(matrix, n_classes)

    def test_fifty_one_columns_span_two_blocks(self):
        rng = np.random.default_rng(51)
        matrix = _duplicated_votes(rng, 500, 51, 2, 80)
        # Rows that differ only past the first block, or only inside it.
        matrix[10] = matrix[11]
        matrix[10, 45] = (matrix[11, 45] + 2) % 3 - 1
        matrix[12] = matrix[13]
        matrix[12, 0] = (matrix[13, 0] + 2) % 3 - 1
        patterns, inverse, _ = _assert_exact_grouping(matrix, 2)
        assert inverse[10] != inverse[11] and inverse[12] != inverse[13]

    def test_many_blocks(self):
        rng = np.random.default_rng(3)
        _assert_exact_grouping(_duplicated_votes(rng, 300, 130, 3, 40), 3)

    def test_all_abstain_rows_form_one_pattern(self):
        rng = np.random.default_rng(4)
        matrix = _duplicated_votes(rng, 50, 6, 2, 10)
        matrix[::5] = ABSTAIN
        patterns, inverse, counts = _assert_exact_grouping(matrix, 2)
        silent = np.flatnonzero((patterns == ABSTAIN).all(axis=1))
        assert len(silent) == 1
        assert counts[silent[0]] == len(matrix[::5])

    def test_one_row(self):
        matrix = np.array([[0, ABSTAIN, 1]])
        patterns, inverse, counts = _assert_exact_grouping(matrix, 2)
        assert inverse.tolist() == [0] and counts.tolist() == [1.0]

    def test_zero_columns_is_one_empty_pattern(self):
        patterns, inverse, counts = vote_patterns(np.empty((5, 0), dtype=int), 2)
        assert patterns.shape == (1, 0)
        assert inverse.tolist() == [0] * 5 and counts.tolist() == [5.0]

    def test_zero_rows(self):
        patterns, inverse, counts = vote_patterns(np.empty((0, 4), dtype=int), 2)
        assert patterns.shape == (0, 4) and inverse.shape == (0,) and counts.sum() == 0


@pytest.fixture()
def duplicated():
    """Noisy votes of 9 LFs on 2000 rows with far fewer distinct vote rows."""
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=2000)
    fired = rng.random((2000, 9)) < 0.12
    correct = rng.random((2000, 9)) < 0.8
    matrix = np.where(fired, np.where(correct, labels[:, None], 1 - labels[:, None]), ABSTAIN)
    assert len(vote_patterns(matrix, 2).counts) < 400
    return matrix


@pytest.mark.parametrize("name", sorted(MODELS))
class TestPatternEMMatchesOracle:
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_cold_fit(self, duplicated, name, early_stop):
        model = MODELS[name](early_stop=early_stop).fit(duplicated)
        oracle = getattr(reference_em, MODELS[name].__name__)(early_stop=early_stop)
        oracle.fit(duplicated)

        assert model.n_iter_ == oracle.n_iter_
        assert model.converged_ is oracle.converged_
        assert model.final_loss_ == pytest.approx(oracle.final_loss_, rel=1e-12)
        np.testing.assert_allclose(
            model.predict_proba(duplicated), oracle.predict_proba(duplicated),
            rtol=0, atol=1e-12,
        )

    def test_warm_fit(self, duplicated, name):
        seed = MODELS[name](early_stop=True).fit(duplicated[:, :-2])
        warm = seed.export_warm_start(list(range(duplicated.shape[1] - 2)) + [-1, -1])
        model = MODELS[name](early_stop=True).fit(duplicated, warm_start=warm)
        oracle = getattr(reference_em, MODELS[name].__name__)(early_stop=True)
        oracle.fit(duplicated, warm_start=warm)

        assert model.warm_started_ and oracle.warm_started_
        assert model.n_iter_ == oracle.n_iter_
        np.testing.assert_allclose(
            model.predict_proba(duplicated), oracle.predict_proba(duplicated),
            rtol=0, atol=1e-12,
        )


@pytest.mark.parametrize("name", sorted(MODELS))
class TestFitPredictProba:
    def test_is_bit_identical_to_predict_proba(self, duplicated, name):
        matrix = np.vstack([duplicated, np.full((3, duplicated.shape[1]), ABSTAIN)])
        model = MODELS[name](class_balance=np.array([0.8, 0.2]), early_stop=True)

        proba = model.fit_predict_proba(matrix)

        np.testing.assert_array_equal(proba, model.predict_proba(matrix))
        np.testing.assert_array_equal(proba[-3:], np.tile([0.8, 0.2], (3, 1)))
        assert "_fit_posterior" not in vars(model)

    def test_zero_lf_fit_falls_back_to_predict_proba(self, name):
        matrix = np.empty((4, 0), dtype=int)
        model = MODELS[name](class_balance=np.array([0.6, 0.4]))
        np.testing.assert_array_equal(
            model.fit_predict_proba(matrix), np.tile([0.6, 0.4], (4, 1))
        )
