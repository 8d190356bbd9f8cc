"""Generative label model: Dawid-Skene-style EM with an abstain outcome.

Each LF *j* is modelled by a full conditional probability table over its
possible outputs (abstain or one of the C classes) given the true label:

    theta_j[y, v] = P(W_ij = v | Y_i = y),   v in {abstain, 0, ..., C-1}

and the class balance P(Y) is held fixed (uniform by default, or provided by
the caller).  EM alternates between computing posterior class
responsibilities for every instance and re-estimating the CPTs from those
responsibilities with Laplace smoothing.

Modelling the *abstain* outcome explicitly matters for data programming with
unipolar LFs (e.g. keyword LFs that only ever vote for one class): whether
such an LF fires at all is informative about the label, and ignoring
abstentions makes the likelihood degenerate (a "every instance belongs to one
class and the other class's LFs are liars" solution explains fired votes
better than the truth).  Holding the class balance fixed removes the
remaining label-switching symmetry.
"""

from __future__ import annotations

import numpy as np

from repro.label_models.base import BaseLabelModel, LabelModelWarmStart
from repro.labeling.lf import ABSTAIN
from repro.numerics import RelativeLossStop
from repro.numerics.em import (
    generative_masks,
    generative_posterior,
    generative_step,
    mean_abs_change,
    pattern_sums,
    vote_patterns,
)
from repro.utils.rng import RandomState, ensure_rng


class GenerativeLabelModel(BaseLabelModel):
    """EM-trained Dawid-Skene label model with abstain-aware CPTs.

    Parameters
    ----------
    n_classes:
        Number of classes.
    max_iter:
        Maximum EM iterations.
    tol:
        Convergence threshold on the mean absolute change in responsibilities
        (the historical fixed-budget criterion; only consulted when
        ``early_stop`` is off).
    smoothing:
        Laplace pseudo-count used in every M-step ratio.
    class_balance:
        Fixed class prior; ``None`` means uniform.
    random_state:
        Seed for the small responsibility jitter used at initialisation.
    early_stop:
        Replace the absolute responsibility-change criterion with adaptive
        early stopping on the *relative* change of the mean per-instance
        negative log-likelihood — a size-independent rule under which
        warm-started refits converge in a couple of iterations.  ``False``
        (default) keeps the fixed ``max_iter`` budget with the
        absolute-change stop at ``tol``.
    early_stop_rtol:
        Relative loss-change threshold of the early-stop rule.
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
    ) -> "GenerativeLabelModel":
        """Run EM to estimate the per-LF conditional probability tables.

        EM runs over the matrix's distinct vote rows, weighted by their
        counts (:func:`repro.numerics.em.vote_patterns`).  ``warm_start`` (a
        previous fit's :meth:`export_warm_start`) seeds the initial
        responsibilities from the carried CPTs of every column the payload's
        map covers; columns new to this fit receive their CPTs from the
        first M-step under those responsibilities.  An inapplicable payload
        falls back to the cold jittered-majority-vote start.
        """
        self._fit_posterior = None
        matrix = self._validate_matrix(label_matrix)
        n_instances, n_lfs = matrix.shape

        self.class_priors_ = (
            self.class_balance
            if self.class_balance is not None
            else np.full(self.n_classes, 1.0 / self.n_classes)
        )
        if n_lfs == 0 or n_instances == 0:
            self.cpts_ = np.zeros((n_lfs, self.n_classes, self.n_classes + 1))
            self.n_iter_ = 0
            self.converged_ = True
            self.final_loss_ = None
            self.warm_started_ = False
            return self

        patterns, inverse, counts = vote_patterns(matrix, self.n_classes)
        # Outcome encoding: column 0 = abstain, column 1+c = vote for class c.
        outcomes = self._encode(patterns)

        responsibilities = None
        applicable = self._check_warm_start(warm_start, n_lfs)
        if applicable is not None:
            params, column_map = applicable
            carried = np.asarray(params.get("cpts", np.empty((0,))), dtype=float)
            if carried.ndim == 3 and carried.shape[1:] == (
                self.n_classes,
                self.n_classes + 1,
            ):
                mapped = column_map >= 0
                responsibilities = self._posterior(
                    outcomes[:, mapped], carried[column_map[mapped]]
                )
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

        masks = generative_masks(outcomes, self.n_classes + 1)
        log_priors = np.log(np.clip(self.class_priors_, 1e-12, 1.0))
        stopper = RelativeLossStop(self.early_stop_rtol) if self.early_stop else None

        cpts = None
        self.n_iter_ = 0
        self.converged_ = False
        self.final_loss_ = None
        for iteration in range(1, self.max_iter + 1):
            cpts, responsibilities, loss = generative_step(
                masks, mass, counts, log_priors, self.smoothing
            )
            mass = counts[:, None] * responsibilities
            self.n_iter_ = iteration
            self.final_loss_ = loss
            if stopper is not None:
                if stopper.update(self.final_loss_):
                    self.converged_ = True
                    break
            else:
                if previous is not None:
                    if mean_abs_change(responsibilities, previous, counts) < self.tol:
                        self.converged_ = True
                        break
                previous = responsibilities
        self.cpts_ = cpts
        # The last E-step ran under exactly these CPTs, so it is
        # predict_proba's pattern posterior for this matrix.
        self._keep_fit_posterior(responsibilities, ~np.any(outcomes, axis=1), inverse)
        return self

    # -------------------------------------------------------------- predict
    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Posterior class probabilities under the fitted CPTs.

        Computed once per distinct vote row and scattered back to the rows.
        """
        if not hasattr(self, "cpts_"):
            raise RuntimeError("GenerativeLabelModel is not fitted yet; call fit() first")
        matrix = self._validate_matrix(label_matrix)
        if matrix.shape[1] != self.cpts_.shape[0]:
            raise ValueError(
                f"label_matrix has {matrix.shape[1]} LF columns, model was "
                f"fitted with {self.cpts_.shape[0]}"
            )
        if matrix.shape[1] == 0:
            return self._prior_proba(matrix.shape[0])
        patterns, inverse, _ = vote_patterns(matrix, self.n_classes)
        proba = self._posterior(self._encode(patterns), self.cpts_)
        # No LF fired: the posterior is the class prior, not blanket 1/C —
        # a configured non-uniform class_balance must survive the fallback.
        uncovered = ~np.any(patterns != ABSTAIN, axis=1)
        proba[uncovered] = self.class_priors_
        return proba[inverse]

    # -------------------------------------------------- derived diagnostics
    @property
    def accuracies_(self) -> np.ndarray:
        """Per-LF accuracy conditional on firing, derived from the CPTs."""
        if not hasattr(self, "cpts_"):
            raise RuntimeError("GenerativeLabelModel is not fitted yet; call fit() first")
        classes = np.arange(self.n_classes)
        correct = self.cpts_[:, classes, 1 + classes] @ self.class_priors_
        fired = (1.0 - self.cpts_[:, :, 0]) @ self.class_priors_
        return np.where(fired > 0, correct / np.where(fired > 0, fired, 1.0), 0.5)

    @property
    def propensities_(self) -> np.ndarray:
        """Per-LF marginal firing probability, derived from the CPTs."""
        if not hasattr(self, "cpts_"):
            raise RuntimeError("GenerativeLabelModel is not fitted yet; call fit() first")
        fire = 1.0 - self.cpts_[:, :, 0]
        return fire @ self.class_priors_

    # ------------------------------------------------------------- internals
    def _encode(self, matrix: np.ndarray) -> np.ndarray:
        """Map votes to outcome indices: abstain -> 0, class c -> 1 + c."""
        return np.where(matrix == ABSTAIN, 0, matrix + 1)

    def _initial_responsibilities(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n_instances = matrix.shape[0]
        counts = np.zeros((n_instances, self.n_classes))
        for cls in range(self.n_classes):
            counts[:, cls] = np.sum(matrix == cls, axis=1)
        counts += 0.5 + 0.05 * rng.random(counts.shape)
        return counts / counts.sum(axis=1, keepdims=True)

    def _posterior(self, outcomes: np.ndarray, cpts: np.ndarray) -> np.ndarray:
        """E-step under the given CPTs (shared with the fit loop's step)."""
        return generative_posterior(outcomes, cpts, self.class_priors_)

    def _warm_start_params(self) -> dict | None:
        if not hasattr(self, "cpts_") or self.cpts_.shape[0] == 0:
            return None
        return {"cpts": self.cpts_.copy()}
