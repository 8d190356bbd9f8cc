"""A split's features are scanned for finiteness once, then trusted read-only.

``Dataset.__init__`` hands its features to ``freeze_finite``: a finite
array that owns its data becomes read-only and registered, and
``check_2d`` skips its O(n·d) ``isfinite`` scan for that array while it
stays read-only.  Each test here fails if the shortcut reaches further:
non-finite features, slices, copies, unpickled copies, arrays made
writeable again and sparse inputs all keep the full check.
"""

import pickle

import numpy as np
import pytest

from repro.datasets import Dataset, load_dataset
from repro.models.logistic_regression import LogisticRegression
from repro.utils import validation
from repro.utils.validation import check_2d


@pytest.fixture
def isfinite_calls(monkeypatch):
    """Shapes of the arrays ``np.isfinite`` scans while the test runs."""
    calls = []
    original = np.isfinite

    def counting(array, *args, **kwargs):
        calls.append(np.shape(array))
        return original(array, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return calls


def _labels(n):
    return np.arange(n) % 2


def _registered(array):
    return validation._FINITE_ARRAYS.get(id(array)) is array


def _dataset(rng, n=20, d=3):
    return Dataset(rng.standard_normal((n, d)), _labels(n), n_classes=2)


def test_finite_features_are_frozen_and_scanned_once(rng, isfinite_calls):
    dataset = _dataset(rng)
    assert not dataset.features.flags.writeable
    assert _registered(dataset.features)
    isfinite_calls.clear()

    check_2d(dataset.features)
    LogisticRegression().fit(dataset.features, dataset.labels).predict_proba(dataset.features)

    assert dataset.features.shape not in isfinite_calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_stay_writeable_and_checked(rng, bad):
    features = rng.standard_normal((20, 3))
    features[4, 1] = bad
    dataset = Dataset(features, _labels(20), n_classes=2)

    assert dataset.features.flags.writeable
    assert not _registered(dataset.features)
    with pytest.raises(ValueError, match="NaN or infinite"):
        LogisticRegression().fit(dataset.features, dataset.labels)
    model = LogisticRegression().fit(rng.standard_normal((20, 3)), _labels(20))
    with pytest.raises(ValueError, match="NaN or infinite"):
        model.predict_proba(dataset.features)


def test_views_are_not_frozen(rng):
    owner = rng.standard_normal((20, 3))
    dataset = Dataset(owner[:10], _labels(10), n_classes=2)

    assert dataset.features.flags.writeable and owner.flags.writeable
    assert not _registered(dataset.features)


def test_slices_copies_and_unpickled_copies_get_the_full_scan(rng, isfinite_calls):
    features = _dataset(rng, n=20, d=3).features
    derived = {
        "view": features.view(),
        "slice": features[2:],
        "copy": features.copy(),
        "unpickled": pickle.loads(pickle.dumps(features)),
    }
    for name, array in derived.items():
        array.flags.writeable = False
        isfinite_calls.clear()
        check_2d(array)
        assert isfinite_calls == [array.shape], name


def test_poisoned_copies_and_unpickled_copies_raise(rng):
    features = _dataset(rng).features
    for array in (features.copy(), pickle.loads(pickle.dumps(features))):
        array[0, 0] = np.nan
        array.flags.writeable = False
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_2d(array)


def test_views_sharing_registered_memory_are_checked(rng):
    features = _dataset(rng).features
    features.flags.writeable = True
    features[5, 0] = np.nan
    for view in (features.view(), features[5:]):
        view.flags.writeable = False
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_2d(view)


def test_features_made_writeable_again_and_poisoned_raise(rng):
    dataset = _dataset(rng)
    dataset.features.flags.writeable = True
    dataset.features[3, 2] = np.inf

    with pytest.raises(ValueError, match="NaN or infinite"):
        check_2d(dataset.features)
    with pytest.raises(ValueError, match="NaN or infinite"):
        LogisticRegression().fit(dataset.features, dataset.labels)


def test_split_features_reject_in_place_writes():
    split = load_dataset("youtube", scale=0.2, random_state=0)
    for dataset in (split.train, split.valid, split.test):
        with pytest.raises(ValueError, match="read-only"):
            dataset.features[0, 0] = 1.0


def test_a_csr_input_with_nan_data_raises():
    train = load_dataset("youtube", scale=1.0, random_state=0).train
    rows = np.arange(600)
    csr = train.csr[rows]
    csr.data[7] = np.nan

    with pytest.raises(ValueError, match="NaN or infinite"):
        LogisticRegression().fit(csr, train.labels[rows])
    with pytest.raises(ValueError, match="NaN or infinite"):
        LogisticRegression().fit(csr[:100], train.labels[:100])


def test_the_pool_csr_holds_the_features_non_zeros():
    train = load_dataset("imdb", scale=1.0, random_state=0).train

    assert train.csr is train.csr
    with pytest.raises(ValueError, match="read-only"):
        train.csr.data[0] = 1.0
    assert train.csr.nnz == np.count_nonzero(train.features)
    np.testing.assert_array_equal(train.csr.toarray(), train.features)
