"""Common interface for label models, including the warm-start refit contract.

Interactive frameworks refit their label model every time the selected LF
subset changes.  Because the label matrix only ever gains columns, the
previous fit is an excellent EM initialiser for the next one; the
:class:`LabelModelWarmStart` payload carries a fitted model's parameters
(plus a column map aligning them with the new matrix) into the next
``fit(matrix, warm_start=...)`` call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.labeling.lf import ABSTAIN


@dataclass(frozen=True)
class LabelModelWarmStart:
    """Fitted parameters exported from one fit to seed the next.

    Attributes
    ----------
    model:
        Class name of the exporting model.  A consuming model silently
        ignores payloads from a different model family (falling back to a
        cold start) so callers can swap label models mid-run.
    n_classes:
        Class count the parameters were fitted for.
    params:
        Model-specific parameter arrays (CPTs, accuracies, propensities...).
    column_map:
        For each column of the *new* label matrix, the column index in the
        exporting fit it corresponds to, or ``-1`` for a brand-new LF.
        ``None`` means the identity map (same columns, same order).
    """

    model: str
    n_classes: int
    params: dict
    column_map: np.ndarray | None = None


class BaseLabelModel(abc.ABC):
    """Aggregates a label matrix into probabilistic labels.

    All label models share the convention that an instance on which *every*
    LF abstains receives the class prior (uniform unless a ``class_balance``
    was configured); the caller (ConFusion, or the coverage mask) decides
    whether such instances are used at all.
    """

    def __init__(self, n_classes: int = 2):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.n_classes = n_classes

    @abc.abstractmethod
    def fit(
        self,
        label_matrix: np.ndarray,
        warm_start: LabelModelWarmStart | None = None,
        **kwargs,
    ) -> "BaseLabelModel":
        """Estimate model parameters from the label matrix.

        ``warm_start`` optionally seeds the optimisation with a previous
        fit's exported parameters (:meth:`export_warm_start`); models without
        iteratively fitted parameters may ignore it.  An inapplicable payload
        (different model family or class count) must degrade to a cold start,
        never raise.
        """

    def export_warm_start(
        self, column_map: np.ndarray | list[int] | None = None
    ) -> LabelModelWarmStart | None:
        """Export this fit's parameters as a warm start for a future fit.

        ``column_map`` aligns the future matrix's columns with this fit's
        (``-1`` marks columns this fit has no parameters for).  Returns
        ``None`` for models that have nothing to warm-start from.
        """
        params = self._warm_start_params()
        if params is None:
            return None
        if column_map is not None:
            column_map = np.asarray(column_map, dtype=int)
        return LabelModelWarmStart(
            model=type(self).__name__,
            n_classes=self.n_classes,
            params=params,
            column_map=column_map,
        )

    def _warm_start_params(self) -> dict | None:
        """Model-specific parameter export; ``None`` when unfitted/stateless."""
        return None

    def _check_warm_start(
        self, warm_start: LabelModelWarmStart | None, n_lfs: int
    ) -> tuple[dict, np.ndarray] | None:
        """Validate a warm-start payload against this model and matrix width.

        Returns ``(params, column_map)`` with the column map normalised to an
        integer array of length *n_lfs*, or ``None`` when the payload is
        missing or inapplicable (wrong model family, wrong class count, map
        of the wrong length, or out-of-range source columns).
        """
        if warm_start is None:
            return None
        if (
            warm_start.model != type(self).__name__
            or warm_start.n_classes != self.n_classes
            or not warm_start.params
        ):
            return None
        column_map = warm_start.column_map
        if column_map is None:
            column_map = np.arange(n_lfs)
        else:
            column_map = np.asarray(column_map, dtype=int)
        if column_map.shape != (n_lfs,):
            return None
        n_source = self._warm_start_source_width(warm_start.params)
        if n_source is None or np.any(column_map >= n_source):
            return None
        if not np.any(column_map >= 0):
            return None
        return warm_start.params, column_map

    @staticmethod
    def _warm_start_source_width(params: dict) -> int | None:
        """Number of LF columns the exported parameters describe."""
        for value in params.values():
            value = np.asarray(value)
            if value.ndim >= 1:
                return value.shape[0]
        return None

    @abc.abstractmethod
    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Return ``(n_instances, n_classes)`` probabilistic labels."""

    def fit_predict_proba(
        self,
        label_matrix: np.ndarray,
        warm_start: LabelModelWarmStart | None = None,
    ) -> np.ndarray:
        """``fit(label_matrix, warm_start=...)``, then ``predict_proba(label_matrix)``.

        The EM models end their fit on the posterior of the fitted rows under
        the final parameters, which is bit for bit what ``predict_proba``
        would compute; it is returned instead of being computed again.
        """
        self.fit(label_matrix, warm_start=warm_start)
        kept = self.__dict__.pop("_fit_posterior", None)
        if kept is None:
            return self.predict_proba(label_matrix)
        pattern_proba, inverse = kept
        return pattern_proba[inverse]

    def _keep_fit_posterior(
        self, pattern_proba: np.ndarray, uncovered: np.ndarray, inverse: np.ndarray
    ) -> None:
        """Keep a fit's final pattern posterior for :meth:`fit_predict_proba`.

        Uncovered patterns get the class prior, as in ``predict_proba``.
        """
        pattern_proba[uncovered] = self.class_priors_
        self._fit_posterior = (pattern_proba, inverse)

    def predict(self, label_matrix: np.ndarray, abstain_uncovered: bool = False) -> np.ndarray:
        """Return hard labels; optionally abstain on fully-uncovered rows."""
        label_matrix = self._validate_matrix(label_matrix)
        proba = self.predict_proba(label_matrix)
        labels = np.argmax(proba, axis=1)
        if abstain_uncovered:
            uncovered = ~np.any(label_matrix != ABSTAIN, axis=1) if label_matrix.shape[1] else np.ones(len(labels), dtype=bool)
            labels = labels.copy()
            labels[uncovered] = ABSTAIN
        return labels

    # -------------------------------------------------------------- helpers
    def _validate_matrix(self, label_matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(label_matrix, dtype=int)
        if matrix.ndim != 2:
            raise ValueError("label_matrix must be 2-dimensional")
        valid = (matrix == ABSTAIN) | ((matrix >= 0) & (matrix < self.n_classes))
        if not np.all(valid):
            raise ValueError(
                "label_matrix contains labels outside "
                f"[0, {self.n_classes}) and != ABSTAIN"
            )
        return matrix

    def _uniform(self, n_instances: int) -> np.ndarray:
        return np.full((n_instances, self.n_classes), 1.0 / self.n_classes)

    def _prior_proba(self, n_instances: int) -> np.ndarray:
        """Rows of the fitted class prior — the fallback for uncovered instances.

        Uniform when no ``class_balance`` was configured, so the historical
        ``1/C`` fill is unchanged in the default configuration.
        """
        priors = getattr(self, "class_priors_", None)
        if priors is None:
            return self._uniform(n_instances)
        return np.tile(np.asarray(priors, dtype=float), (n_instances, 1))
