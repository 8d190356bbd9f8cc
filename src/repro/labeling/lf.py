"""Label-function abstractions.

The paper's simulated user produces two families of label functions:

* **Keyword LFs** for textual datasets: ``lambda_{w, y}`` returns class *y*
  when keyword *w* occurs in the document and abstains otherwise
  (Section 4.1.4).
* **Threshold LFs (decision stumps)** for tabular datasets:
  ``lambda_{j, v, op, y}`` returns class *y* when ``x_j >= v`` (or ``<= v``)
  and abstains otherwise.

Both are implemented as small, hashable, picklable objects so LF sets can be
deduplicated, compared and logged.  ``LambdaLF`` wraps an arbitrary callable
for users who want to write ad-hoc rules against the public API.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

ABSTAIN = -1


class LabelFunction(abc.ABC):
    """A weak-supervision rule mapping instances to a class label or abstain."""

    name: str

    @abc.abstractmethod
    def apply(self, dataset) -> np.ndarray:
        """Vectorised application: return one weak label per dataset instance."""

    def __call__(self, dataset) -> np.ndarray:
        return self.apply(dataset)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}({self.name})"


class KeywordLF(LabelFunction):
    """Return *label* when *keyword* appears in the document's tokens.

    Parameters
    ----------
    keyword:
        The unigram trigger.
    label:
        Class label emitted when the keyword is present.
    """

    def __init__(self, keyword: str, label: int):
        if not keyword:
            raise ValueError("keyword must be a non-empty string")
        if label < 0:
            raise ValueError("label must be a valid class index (>= 0)")
        self.keyword = keyword
        self.label = int(label)
        self.name = f"keyword[{keyword}]->{label}"

    def apply(self, dataset) -> np.ndarray:
        """Apply against a :class:`~repro.datasets.TextDataset` (uses its postings)."""
        output = np.full(len(dataset), ABSTAIN, dtype=int)
        docs = dataset.postings.get(self.keyword)
        if docs is not None:
            output[docs] = self.label
        return output

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KeywordLF)
            and self.keyword == other.keyword
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash(("keyword", self.keyword, self.label))


class ThresholdLF(LabelFunction):
    """Decision-stump LF for tabular data: ``x[feature] op value -> label``.

    Parameters
    ----------
    feature:
        Feature column index.
    value:
        Threshold value.
    op:
        Either ``">="`` or ``"<="``.
    label:
        Class label emitted when the comparison holds.
    """

    _OPS = (">=", "<=")

    def __init__(self, feature: int, value: float, op: str, label: int):
        if op not in self._OPS:
            raise ValueError(f"op must be one of {self._OPS}, got {op!r}")
        if feature < 0:
            raise ValueError("feature index must be non-negative")
        if label < 0:
            raise ValueError("label must be a valid class index (>= 0)")
        self.feature = int(feature)
        self.value = float(value)
        self.op = op
        self.label = int(label)
        self.name = f"x[{feature}]{op}{value:.4g}->{label}"

    def apply(self, dataset) -> np.ndarray:
        """Apply against a :class:`~repro.datasets.TabularDataset` (raw features)."""
        column = dataset.raw_features[:, self.feature]
        if self.op == ">=":
            fires = column >= self.value
        else:
            fires = column <= self.value
        output = np.full(len(column), ABSTAIN, dtype=int)
        output[fires] = self.label
        return output

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThresholdLF)
            and self.feature == other.feature
            and self.value == other.value
            and self.op == other.op
            and self.label == other.label
        )

    def __hash__(self) -> int:
        return hash(("threshold", self.feature, self.value, self.op, self.label))


class LambdaLF(LabelFunction):
    """Wrap an arbitrary per-instance callable as a label function.

    Parameters
    ----------
    func:
        Callable taking one instance (a document string for text datasets or
        a feature vector for tabular datasets) and returning a class label or
        :data:`ABSTAIN`.
    name:
        Human-readable identifier.
    """

    def __init__(self, func: Callable, name: str):
        if not callable(func):
            raise TypeError("func must be callable")
        self.func = func
        self.name = name

    def apply(self, dataset) -> np.ndarray:
        instances: Sequence = dataset.instances
        output = np.full(len(instances), ABSTAIN, dtype=int)
        for i, instance in enumerate(instances):
            output[i] = int(self.func(instance))
        return output

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaLF) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("lambda", self.name))
