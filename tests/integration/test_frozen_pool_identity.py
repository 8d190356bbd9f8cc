"""Frozen features and CSR end-model fits leave every trial record unchanged.

Each trial runs twice on the same generated split.  The first run is the
shipped code: every split's features are frozen (``check_2d`` trusts them
without a scan) and the end model fits on a row slice of ``train.csr``.
The second gives every split a writeable copy of its features, so no
array is registered, and hands the end model dense ``features[indices]``
rows.  The two runs' ``IterationRecord``s must be equal, field for field.
Nothing here pins a digest, so the check holds under any BLAS build.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.experiments.protocol import EvaluationProtocol
from repro.models.logistic_regression import SPARSE_MIN_ROWS
from repro.runner.executor import run_trial_on_split
from repro.utils import validation

TRIALS = [("activedp", "imdb"), ("activedp", "youtube"), ("nemo", "youtube")]
SEED = 3


class _DenseRows:
    """Stands in for ``Dataset.csr``: a row slice comes back dense."""

    def __init__(self, features):
        self.features = features

    def __getitem__(self, rows):
        return self.features[rows]


def _unfrozen(split):
    for dataset in (split.train, split.valid, split.test):
        dataset.features = dataset.features.copy()
        dataset.__dict__["csr"] = _DenseRows(dataset.features)
    return split


def _run(framework, split):
    protocol = EvaluationProtocol(
        n_iterations=20, eval_every=5, n_seeds=1, dataset_scale=1.0
    )
    return run_trial_on_split(framework, split, protocol, SEED).records


@pytest.mark.parametrize("framework, dataset", TRIALS)
def test_records_match_unfrozen_dense_features(framework, dataset):
    shipped_split = load_dataset(dataset, scale=1.0, random_state=SEED)
    reference_split = _unfrozen(load_dataset(dataset, scale=1.0, random_state=SEED))

    shipped = _run(framework, shipped_split)
    reference = _run(framework, reference_split)

    train = shipped_split.train
    assert not train.features.flags.writeable
    assert validation._FINITE_ARRAYS.get(id(train.features)) is train.features
    assert "csr" in vars(train), "the end model never read the pool CSR"
    assert reference_split.train.features.flags.writeable
    # The last end-model fit covers enough rows for the CSR design.
    assert shipped[-1].label_coverage * len(train) >= SPARSE_MIN_ROWS
    np.testing.assert_array_equal(reference_split.train.features, train.features)
    assert shipped == reference
