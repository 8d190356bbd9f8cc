"""MeTaL-style label model: accuracy/propensity parameterisation fitted by EM.

The paper uses MeTaL [Ratner et al. 2019] as its label model.  MeTaL
parameterises every LF by class-conditional accuracy parameters under a
conditional-independence assumption and recovers them from the observed
label-matrix statistics (via a matrix-completion view of the inverse
covariance), with the class balance supplied as a prior.  This reproduction
keeps the same model family with an explicit, tied parameterisation per LF
*j* and class *y*:

    P(W_j fires        | Y = y) = propensity_j[y]
    P(W_j = y  | fires, Y = y)  = accuracy_j
    P(W_j = y' | fires, Y = y)  = (1 - accuracy_j) / (C - 1),  y' != y

and fits ``accuracy_j`` (clamped to the better-than-random range) and the
class-conditional propensities by expectation-maximisation with the class
balance held fixed.  Two properties matter for faithfulness to the paper's
pipeline:

* the per-LF **accuracy** is a single scalar the aggregation weighs votes by,
  exactly the quantity MeTaL estimates and the paper reasons about; and
* the **class-conditional propensity** captures that unipolar LFs (keyword
  LFs that only ever vote one class) carry signal in *whether they fire*,
  which keeps the estimator identifiable where a fired-votes-only likelihood
  would collapse.

Compared with :class:`~repro.label_models.generative.GenerativeLabelModel`
(a free Dawid-Skene CPT per LF), this model is more constrained — one
accuracy scalar instead of a full confusion row — which is the practical
difference between MeTaL-style and Snorkel-v0.9-style aggregation.
"""

from __future__ import annotations

import numpy as np

from repro.label_models.base import BaseLabelModel, LabelModelWarmStart
from repro.labeling.lf import ABSTAIN
from repro.numerics import RelativeLossStop
from repro.numerics.em import (
    mean_abs_change,
    metal_masks,
    metal_posterior,
    metal_step,
    pattern_sums,
    vote_patterns,
)
from repro.utils.rng import RandomState, ensure_rng


class MeTaLLabelModel(BaseLabelModel):
    """Accuracy-parameterised label model fitted by EM.

    Parameters
    ----------
    n_classes:
        Number of classes.
    max_iter:
        Maximum EM iterations.
    tol:
        Convergence threshold on the mean absolute change in responsibilities.
    smoothing:
        Laplace pseudo-count used in the M-step ratios.
    prior_accuracy:
        Initial accuracy for every LF (the data-programming better-than-random
        prior).
    accuracy_bounds:
        Clamp on the estimated accuracies; the lower bound above ``1/C``
        keeps every vote weakly informative in its stated direction.
    class_balance:
        Fixed class prior; ``None`` means uniform (MeTaL's default when the
        balance is unknown).
    random_state:
        Seed for the initialisation jitter.
    early_stop:
        Replace the absolute responsibility-change criterion with adaptive
        early stopping on the *relative* change of the mean per-instance
        negative log-likelihood.  ``False`` (default) keeps the fixed
        ``max_iter`` budget with the absolute-change stop at ``tol``.
    early_stop_rtol:
        Relative loss-change threshold of the early-stop rule.
    """

    def __init__(
        self,
        n_classes: int = 2,
        max_iter: int = 100,
        tol: float = 1e-5,
        smoothing: float = 1.0,
        prior_accuracy: float = 0.7,
        accuracy_bounds: tuple[float, float] = (0.55, 0.98),
        class_balance: np.ndarray | None = None,
        random_state: RandomState = 0,
        early_stop: bool = False,
        early_stop_rtol: float = 1e-5,
    ):
        super().__init__(n_classes=n_classes)
        if max_iter < 1:
            # A fit ends on its last E-step's posterior; zero steps leave none.
            raise ValueError("max_iter must be >= 1")
        if not 0.5 < prior_accuracy < 1.0:
            raise ValueError("prior_accuracy must be in (0.5, 1.0)")
        low, high = accuracy_bounds
        if not 0.0 < low < high <= 1.0:
            raise ValueError("accuracy_bounds must satisfy 0 < low < high <= 1")
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.prior_accuracy = prior_accuracy
        self.accuracy_bounds = (float(low), float(high))
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
    ) -> "MeTaLLabelModel":
        """Estimate per-LF accuracies and class-conditional propensities by EM.

        EM runs over the matrix's distinct vote rows, weighted by their
        counts (:func:`repro.numerics.em.vote_patterns`).  ``warm_start`` (a
        previous fit's :meth:`export_warm_start`) seeds the
        accuracies/propensities of every column the payload's map covers and
        the initial responsibilities are the posterior under those carried
        parameters; columns new to this fit keep the cold prior-accuracy /
        marginal-firing initialisation.  An inapplicable payload falls back
        to the cold jittered-majority-vote start.
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
        if n_lfs == 0 or n_instances == 0:
            self.accuracies_ = np.zeros(0)
            self.propensities_ = np.zeros((0, self.n_classes))
            self.n_iter_ = 0
            self.converged_ = True
            self.final_loss_ = None
            self.warm_started_ = False
            return self

        patterns, inverse, counts = vote_patterns(matrix, self.n_classes)
        self.accuracies_ = np.full(n_lfs, self.prior_accuracy)
        marginal_fire = np.clip(np.mean(matrix != ABSTAIN, axis=0), 1e-3, 1.0)
        self.propensities_ = np.tile(marginal_fire[:, None], (1, self.n_classes))

        responsibilities = None
        applicable = self._check_warm_start(warm_start, n_lfs)
        if applicable is not None:
            params, column_map = applicable
            carried_acc = np.asarray(params.get("accuracies", np.empty(0)), dtype=float)
            carried_prop = np.asarray(
                params.get("propensities", np.empty((0, 0))), dtype=float
            )
            if (
                carried_acc.ndim == 1
                and carried_prop.shape == (carried_acc.shape[0], self.n_classes)
            ):
                mapped = column_map >= 0
                self.accuracies_[mapped] = carried_acc[column_map[mapped]]
                self.propensities_[mapped] = carried_prop[column_map[mapped]]
                responsibilities = self._posterior(patterns)
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

        fired, not_fired, vote_masks, vote_index = metal_masks(
            patterns, self.n_classes, ABSTAIN
        )
        never_fired = ~fired.any(axis=0)
        log_priors = np.log(np.clip(self.class_priors_, 1e-12, 1.0))
        low, high = self.accuracy_bounds
        stopper = RelativeLossStop(self.early_stop_rtol) if self.early_stop else None

        accuracies = propensities = None
        self.n_iter_ = 0
        self.converged_ = False
        self.final_loss_ = None
        for iteration in range(1, self.max_iter + 1):
            accuracies, propensities, responsibilities, loss = metal_step(
                fired, not_fired, vote_masks, vote_index, never_fired,
                mass, counts, log_priors, self.smoothing,
                self.prior_accuracy, low, high,
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
        self.accuracies_ = accuracies
        self.propensities_ = propensities
        # The last E-step ran under exactly these parameters, so it is
        # predict_proba's pattern posterior for this matrix.
        self._keep_fit_posterior(responsibilities, ~fired.any(axis=1), inverse)
        return self

    # -------------------------------------------------------------- predict
    def predict_proba(self, label_matrix: np.ndarray) -> np.ndarray:
        """Posterior class probabilities under the fitted parameters.

        Computed once per distinct vote row and scattered back to the rows.
        """
        if not hasattr(self, "accuracies_"):
            raise RuntimeError("MeTaLLabelModel is not fitted yet; call fit() first")
        matrix = self._validate_matrix(label_matrix)
        if matrix.shape[1] != self.n_lfs_:
            raise ValueError(
                f"label_matrix has {matrix.shape[1]} LF columns, model was "
                f"fitted with {self.n_lfs_}"
            )
        if self.n_lfs_ == 0:
            return self._prior_proba(matrix.shape[0])
        patterns, inverse, _ = vote_patterns(matrix, self.n_classes)
        proba = self._posterior(patterns)
        # No LF fired: the posterior is the class prior, not blanket 1/C —
        # a configured non-uniform class_balance must survive the fallback.
        uncovered = ~np.any(patterns != ABSTAIN, axis=1)
        proba[uncovered] = self.class_priors_
        return proba[inverse]

    # ------------------------------------------------------------- internals
    def _initial_responsibilities(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        counts = np.zeros((matrix.shape[0], self.n_classes))
        for cls in range(self.n_classes):
            counts[:, cls] = np.sum(matrix == cls, axis=1)
        counts += 0.5 + 0.05 * rng.random(counts.shape)
        return counts / counts.sum(axis=1, keepdims=True)

    def _posterior(self, patterns: np.ndarray) -> np.ndarray:
        """E-step of vote rows under the fitted parameters (shared with the fit loop's step)."""
        return metal_posterior(
            patterns,
            ABSTAIN,
            self.accuracies_,
            self.propensities_,
            self.class_priors_,
            self.n_classes,
        )

    def _warm_start_params(self) -> dict | None:
        if not hasattr(self, "accuracies_") or self.accuracies_.shape[0] == 0:
            return None
        return {
            "accuracies": self.accuracies_.copy(),
            "propensities": self.propensities_.copy(),
        }
