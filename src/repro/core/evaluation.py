"""The protocol's checkpoint reading of generated training labels (Section 4.1.3).

The downstream logistic regression is fitted on the labelled rows of the
pool's cached CSR and scored on the test split (validation majority class
while no labels exist); the labels' coverage and accuracy are diagnostics
that use ground truth.  Trials, ``ActiveDP``'s public evaluation methods and
the serving payload all read labels through these functions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.models.logistic_regression import LogisticRegression
from repro.models.metrics import accuracy_score


class Evaluation(NamedTuple):
    """One checkpoint's numbers, named like their ``IterationRecord`` fields."""

    test_accuracy: float
    label_coverage: float
    label_accuracy: float


def fit_end_model(train, indices, labels, C: float = 1.0) -> LogisticRegression | None:
    """Downstream model fitted on ``train`` rows *indices* (``None`` without labels)."""
    if len(indices) == 0:
        return None
    model = LogisticRegression(C=C, n_classes=train.n_classes)
    model.fit(train.csr[indices], labels)
    return model


def score_end_model(model: LogisticRegression | None, test, valid) -> float:
    """Test accuracy of *model*; the validation majority class stands in for ``None``."""
    if model is None:
        majority = int(np.argmax(np.bincount(valid.labels, minlength=valid.n_classes)))
        return accuracy_score(test.labels, np.full(len(test), majority))
    return float(model.score(test.features, test.labels))


def score_labels(train, indices, labels) -> dict:
    """Coverage of the pool and accuracy of the generated labels on it."""
    if len(indices) == 0:
        return {"coverage": 0.0, "accuracy": 0.0}
    accuracy = accuracy_score(train.labels[indices], labels)
    return {"coverage": len(indices) / len(train), "accuracy": accuracy}


def evaluate_labels(data_split, indices, labels, C: float = 1.0) -> Evaluation:
    """Every checkpoint number from one set of generated labels."""
    model = fit_end_model(data_split.train, indices, labels, C=C)
    return score_checkpoint(data_split, indices, labels, model)


def score_checkpoint(data_split, indices, labels, model) -> Evaluation:
    """Every checkpoint number from generated labels and the end model fitted on them."""
    quality = score_labels(data_split.train, indices, labels)
    return Evaluation(
        score_end_model(model, data_split.test, data_split.valid),
        quality["coverage"],
        quality["accuracy"],
    )
