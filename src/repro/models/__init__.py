"""Machine-learning substrate: classifiers, metrics and preprocessing.

The paper uses scikit-learn's logistic regression as both the active-learning
model and the downstream (end) model; this package provides an equivalent
implementation built only on NumPy/SciPy, plus the metrics, feature scaling
and data-splitting utilities needed by the rest of the library.
"""

from repro.models.base import BaseClassifier
from repro.models.logistic_regression import LogisticRegression
from repro.models.metrics import (
    accuracy_score,
    confusion_matrix,
    coverage_score,
    f1_score,
    log_loss,
    precision_score,
    recall_score,
)
from repro.models.model_selection import train_valid_test_split
from repro.models.preprocessing import StandardScaler

__all__ = [
    "BaseClassifier",
    "LogisticRegression",
    "StandardScaler",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "log_loss",
    "coverage_score",
    "confusion_matrix",
    "train_valid_test_split",
]
