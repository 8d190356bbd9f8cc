"""The logistic regression matches the historical one on real trials' fits.

Every ``LogisticRegression.fit`` call of a small seeded ``activedp`` imdb
trial and a small seeded youtube trial is recorded, then replayed through
the historical model (the oracle in ``reference_logistic``) and through the
production one.  Fits on the dense design must be bit-identical.  Fits on a
CSR design take the same L-BFGS steps over differently summed products, so
they must predict the same labels on every split and agree on
probabilities to 1e-10.  The end-model fits pass a row slice of the pool's
CSR (``Dataset.csr``); the oracle, which takes dense input only, gets its
``toarray()``.
"""

import numpy as np
import pytest
import reference_logistic as reference
from scipy import sparse
from scipy.special import softmax

from repro.datasets import load_dataset
from repro.datasets.registry import dataset_names
from repro.models import logistic_regression
from repro.models.logistic_regression import LogisticRegression, _design, _softmax2

TRIALS = {
    "imdb": dict(dataset="imdb", seed=0, scale=1.0, iterations=20, eval_every=10),
    "youtube": dict(dataset="youtube", seed=0, scale=1.0, iterations=20, eval_every=10),
}


@pytest.fixture(scope="module", params=sorted(TRIALS))
def trial(request):
    return reference.record_lr_calls(**TRIALS[request.param])


def _uses_csr(params, args):
    return sparse.issparse(_design(args[0], params["fit_intercept"]))


def _dense(args):
    return tuple(arg.toarray() if sparse.issparse(arg) else arg for arg in args)


def _replay(params, args, kwargs):
    expected = reference.LogisticRegression(**params).fit(*_dense(args), **kwargs)
    result = LogisticRegression(**params).fit(*args, **kwargs)
    return expected, result


def test_the_trial_exercises_both_designs(trial):
    _, calls = trial
    csr = [_uses_csr(params, args) for params, args, _ in calls]
    csr_inputs = [sparse.issparse(args[0]) for _, args, _ in calls]

    assert len(calls) >= 10
    assert any(csr) and not all(csr)
    assert any(csr_inputs) and not all(csr_inputs)


def test_dense_fits_are_bit_identical(trial):
    _, calls = trial
    for number, (params, args, kwargs) in enumerate(calls):
        if _uses_csr(params, args):
            continue
        expected, result = _replay(params, args, kwargs)

        np.testing.assert_array_equal(result.coef_, expected.coef_, err_msg=f"call {number}")
        np.testing.assert_array_equal(
            result.intercept_, expected.intercept_, err_msg=f"call {number}"
        )


def test_csr_fits_predict_like_the_oracle(trial):
    split, calls = trial
    for number, (params, args, kwargs) in enumerate(calls):
        if not _uses_csr(params, args):
            continue
        expected, result = _replay(params, args, kwargs)

        for part in (split.train, split.valid, split.test):
            np.testing.assert_array_equal(
                result.predict(part.features), expected.predict(part.features),
                err_msg=f"call {number}",
            )
            np.testing.assert_allclose(
                result.predict_proba(part.features), expected.predict_proba(part.features),
                rtol=0, atol=1e-10, err_msg=f"call {number}",
            )


def test_csr_design_equals_the_dense_design(trial):
    _, calls = trial
    for params, args, _ in calls:
        if not _uses_csr(params, args):
            continue
        X = _dense(args)[0]
        design = _design(X, fit_intercept=True)
        plain = _design(X, fit_intercept=False)

        assert sparse.issparse(plain)
        np.testing.assert_array_equal(design.toarray(), np.hstack([X, np.ones((len(X), 1))]))
        np.testing.assert_array_equal(plain.toarray(), X)


def _assert_same_design(result, expected):
    assert sparse.issparse(result) == sparse.issparse(expected)
    if not sparse.issparse(expected):
        np.testing.assert_array_equal(result, expected)
        return
    assert result.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("name", dataset_names("text"))
def test_pool_csr_rows_give_the_dense_rows_design(name):
    train = load_dataset(name, scale=1.0, random_state=0).train
    rng = np.random.default_rng(0)
    many = np.sort(rng.choice(len(train), logistic_regression.SPARSE_MIN_ROWS + 50, replace=False))
    few = np.sort(rng.choice(len(train), 300, replace=False))
    for rows, csr_design in ((many, True), (few, False)):
        for fit_intercept in (True, False):
            result = _design(train.csr[rows], fit_intercept)
            expected = _design(train.features[rows], fit_intercept)

            assert sparse.issparse(result) == csr_design
            _assert_same_design(result, expected)


def test_the_design_rule_reads_only_shape_and_density():
    rows = logistic_regression.SPARSE_MIN_ROWS
    sparse_rows = np.zeros((rows, 8))
    sparse_rows[:, 0] = 1.0

    assert sparse.issparse(_design(sparse_rows, fit_intercept=True))
    assert not sparse.issparse(_design(sparse_rows[:-1], fit_intercept=True))
    assert not sparse.issparse(_design(np.ones((rows, 8)), fit_intercept=True))


def test_softmax2_is_scipy_softmax_bit_for_bit():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((100_000, 2)) * np.array([1.0, 40.0])
    logits[:10] = [[0.0, 0.0], [1e300, -1e300], [-745.0, 0.0], [709.0, 709.0],
                   [5.0, 5.0 + 1e-15], [-1e-300, 1e-300], [30.0, -30.0],
                   [1e-8, 0.0], [-3.5, 2.25], [700.0, -700.0]]

    np.testing.assert_array_equal(_softmax2(logits), softmax(logits, axis=1))
