"""Common interface for label models, including the warm-start refit contract.

Interactive frameworks refit their label model every time the selected LF
subset changes.  Because the label matrix only ever gains columns, the
previous fit is an excellent EM initialiser for the next one; the
:class:`LabelModelWarmStart` payload carries a fitted model's parameters
(plus a column map aligning them with the new matrix) into the next
``fit(matrix, warm_start=...)`` call.

:class:`EMLabelModel` is the one EM fit both EM models run: validation, the
cold start, the loop with its two stopping rules and the pattern
``predict_proba`` path.  A subclass supplies only its parameters and their
EM step.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.labeling.lf import ABSTAIN
from repro.numerics import RelativeLossStop
from repro.numerics.em import mean_abs_change, pattern_sums, vote_patterns
from repro.utils.rng import RandomState, ensure_rng


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


class EMLabelModel(BaseLabelModel):
    """A label model fitted by EM over the label matrix's distinct vote rows.

    :meth:`fit` and :meth:`predict_proba` are defined here once.  A subclass
    holds its own fitted parameters and supplies what differs:

    * :meth:`_em_step` — the fit's loop-invariant masks and one EM iteration
      over them (an M-step from pattern mass, then the E-step), which stores
      the new parameters on the model;
    * :meth:`_pattern_posterior` — the E-step of vote rows under the fitted
      parameters;
    * :meth:`_warm_posterior` — how a warm start's carried parameters map
      onto a new fit, as the posterior they give its patterns;
    * :meth:`_set_empty_params` and :meth:`_warm_start_params` — the
      parameters of a fit that estimated nothing (a matrix without rows or
      LFs), and the warm-start export, which is ``None`` for such a fit.

    The constructor parameters shared by the EM models (``max_iter``,
    ``tol``, ``smoothing``, ``class_balance``, ``random_state``,
    ``early_stop``, ``early_stop_rtol``) are documented on the subclasses.
    """

    def __init__(
        self,
        n_classes: int = 2,
        max_iter: int = 100,
        tol: float = 1e-5,
        smoothing: float = 1.0,
        class_balance: np.ndarray | None = None,
        random_state: RandomState = 0,
        early_stop: bool = False,
        early_stop_rtol: float = 1e-5,
    ):
        super().__init__(n_classes=n_classes)
        if max_iter < 1:
            # A fit ends on its last E-step's posterior; zero steps leave none.
            raise ValueError("max_iter must be >= 1")
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.random_state = random_state
        self.early_stop = early_stop
        self.early_stop_rtol = early_stop_rtol
        if class_balance is not None:
            class_balance = np.asarray(class_balance, dtype=float)
            if class_balance.shape != (n_classes,):
                raise ValueError("class_balance must have shape (n_classes,)")
            if np.any(class_balance <= 0):
                raise ValueError("class_balance entries must be positive")
            class_balance = class_balance / class_balance.sum()
        self.class_balance = class_balance

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        label_matrix: np.ndarray,
        warm_start: LabelModelWarmStart | None = None,
        **kwargs,
    ) -> "EMLabelModel":
        """Fit the model's parameters by EM with the class balance held fixed.

        EM runs over the matrix's distinct vote rows, weighted by their
        counts (:func:`repro.numerics.em.vote_patterns`).  ``warm_start`` (a
        previous fit's :meth:`export_warm_start`) seeds the initial
        responsibilities with the posterior under the carried parameters of
        every column the payload's map covers.  An inapplicable payload falls
        back to the cold jittered-majority-vote start.

        The loop stops on the relative change of the mean per-instance
        negative log-likelihood when ``early_stop`` is set, and otherwise
        when the mean absolute responsibility change drops below ``tol``, or
        after ``max_iter`` iterations.
        """
        self._fit_posterior = None
        matrix = self._validate_matrix(label_matrix)
        n_instances, n_lfs = matrix.shape
        self.n_lfs_ = n_lfs
        self.class_priors_ = (
            self.class_balance
            if self.class_balance is not None
            else np.full(self.n_classes, 1.0 / self.n_classes)
        )
        self.n_iter_ = 0
        self.final_loss_ = None
        if n_lfs == 0 or n_instances == 0:
            # Nothing to estimate from: no parameters, and predict_proba
            # answers the prior for every row.
            self._set_empty_params()
            self.converged_ = True
            self.warm_started_ = False
            return self

        patterns, inverse, counts = vote_patterns(matrix, self.n_classes)
        applicable = self._check_warm_start(warm_start, n_lfs)
        responsibilities = None
        if applicable is not None:
            responsibilities = self._warm_posterior(*applicable, matrix, patterns)
        self.warm_started_ = responsibilities is not None
        # A warm initialisation is already a model posterior, so it is a valid
        # convergence reference: a refit of an (almost) converged model can
        # stop after a single EM iteration.  The cold jittered-majority-vote
        # start is not a posterior, hence previous=None there.
        previous = responsibilities
        if responsibilities is None:
            rng = ensure_rng(self.random_state)
            mass = pattern_sums(
                self._initial_responsibilities(matrix, rng), inverse, len(counts)
            )
        else:
            mass = counts[:, None] * responsibilities

        step = self._em_step(patterns, np.log(np.clip(self.class_priors_, 1e-12, 1.0)))
        stopper = RelativeLossStop(self.early_stop_rtol) if self.early_stop else None
        self.converged_ = False
        for iteration in range(1, self.max_iter + 1):
            responsibilities, self.final_loss_ = step(mass, counts)
            mass = counts[:, None] * responsibilities
            self.n_iter_ = iteration
            if stopper is not None:
                converged = stopper.update(self.final_loss_)
            else:
                converged = (
                    previous is not None
                    and mean_abs_change(responsibilities, previous, counts) < self.tol
                )
                previous = responsibilities
            if converged:
                self.converged_ = True
                break
        # The last E-step ran under exactly the fitted parameters, so it is
        # predict_proba's pattern posterior for this matrix: keep it for
        # fit_predict_proba, uncovered patterns set to the prior as there.
        responsibilities[~np.any(patterns != ABSTAIN, axis=1)] = self.class_priors_
        self._fit_posterior = (responsibilities, inverse)
        return self

    # -------------------------------------------------------------- predict
    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Posterior class probabilities under the fitted parameters.

        Computed once per distinct vote row and scattered back to the rows.
        """
        if not hasattr(self, "n_lfs_"):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )
        matrix = self._validate_matrix(label_matrix)
        if matrix.shape[1] != self.n_lfs_:
            raise ValueError(
                f"label_matrix has {matrix.shape[1]} LF columns, model was "
                f"fitted with {self.n_lfs_}"
            )
        if self.n_iter_ == 0:
            # The fit had no rows or no LFs, so it ran no EM iteration.
            return self._prior_proba(matrix.shape[0])
        patterns, inverse, _ = vote_patterns(matrix, self.n_classes)
        proba = self._pattern_posterior(patterns)
        # No LF fired: the posterior is the class prior, not blanket 1/C —
        # a configured non-uniform class_balance must survive the fallback.
        proba[~np.any(patterns != ABSTAIN, axis=1)] = self.class_priors_
        return proba[inverse]

    # ------------------------------------------------------------- internals
    def _prior_proba(self, n_instances: int) -> np.ndarray:
        """Rows of the fitted class prior: the posterior of a row no LF votes on."""
        return np.tile(self.class_priors_, (n_instances, 1))

    def _initial_responsibilities(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Cold start: per-row class vote counts, plus 0.5 and a jitter, normalised."""
        counts = np.zeros((matrix.shape[0], self.n_classes))
        for cls in range(self.n_classes):
            counts[:, cls] = np.sum(matrix == cls, axis=1)
        counts += 0.5 + 0.05 * rng.random(counts.shape)
        return counts / counts.sum(axis=1, keepdims=True)

    @abc.abstractmethod
    def _set_empty_params(self) -> None:
        """Store parameters for no LF at all: the fit of a matrix without rows or LFs."""

    @abc.abstractmethod
    def _warm_posterior(
        self,
        params: dict,
        column_map: np.ndarray,
        matrix: np.ndarray,
        patterns: np.ndarray,
    ) -> np.ndarray | None:
        """Posterior of *patterns* under a warm start's carried parameters.

        *params* and *column_map* come from :meth:`_check_warm_start`.
        ``None`` when the carried parameters do not fit this model's shapes,
        which makes the fit start cold.
        """

    @abc.abstractmethod
    def _em_step(
        self, patterns: np.ndarray, log_priors: np.ndarray
    ) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float]]:
        """One EM iteration over *patterns*, as ``step(mass, counts)``.

        The step stores the parameters its M-step estimates on the model and
        returns the E-step's pattern posterior and the loss under them.
        """

    @abc.abstractmethod
    def _pattern_posterior(self, patterns: np.ndarray) -> np.ndarray:
        """E-step of distinct vote rows under the fitted parameters."""
