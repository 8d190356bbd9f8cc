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

from repro.label_models.base import EMLabelModel
from repro.labeling.lf import ABSTAIN
from repro.numerics.em import metal_masks, metal_posterior, metal_step
from repro.utils.rng import RandomState


class MeTaLLabelModel(EMLabelModel):
    """Accuracy-parameterised label model fitted by EM.

    A warm start seeds the accuracies/propensities of every column the
    payload's map covers; columns new to the fit keep the cold
    prior-accuracy / marginal-firing initialisation, and the initial
    responsibilities are the posterior under those parameters.

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
        super().__init__(
            n_classes=n_classes,
            max_iter=max_iter,
            tol=tol,
            smoothing=smoothing,
            class_balance=class_balance,
            random_state=random_state,
            early_stop=early_stop,
            early_stop_rtol=early_stop_rtol,
        )
        if not 0.5 < prior_accuracy < 1.0:
            raise ValueError("prior_accuracy must be in (0.5, 1.0)")
        low, high = accuracy_bounds
        if not 0.0 < low < high <= 1.0:
            raise ValueError("accuracy_bounds must satisfy 0 < low < high <= 1")
        self.prior_accuracy = prior_accuracy
        self.accuracy_bounds = (float(low), float(high))

    # ------------------------------------------------------------- internals
    def _set_empty_params(self) -> None:
        self.accuracies_ = np.zeros(0)
        self.propensities_ = np.zeros((0, self.n_classes))

    def _warm_posterior(self, params, column_map, matrix, patterns):
        carried_acc = np.asarray(params.get("accuracies", np.empty(0)), dtype=float)
        carried_prop = np.asarray(
            params.get("propensities", np.empty((0, 0))), dtype=float
        )
        if not (
            carried_acc.ndim == 1
            and carried_prop.shape == (carried_acc.shape[0], self.n_classes)
        ):
            return None
        self.accuracies_ = np.full(matrix.shape[1], self.prior_accuracy)
        marginal_fire = np.clip(np.mean(matrix != ABSTAIN, axis=0), 1e-3, 1.0)
        self.propensities_ = np.tile(marginal_fire[:, None], (1, self.n_classes))
        mapped = column_map >= 0
        self.accuracies_[mapped] = carried_acc[column_map[mapped]]
        self.propensities_[mapped] = carried_prop[column_map[mapped]]
        return self._posterior(patterns)

    def _em_step(self, patterns, log_priors):
        fired, not_fired, vote_masks, vote_index = metal_masks(
            patterns, self.n_classes, ABSTAIN
        )
        never_fired = ~fired.any(axis=0)
        low, high = self.accuracy_bounds

        def step(mass, counts):
            self.accuracies_, self.propensities_, responsibilities, loss = metal_step(
                fired, not_fired, vote_masks, vote_index, never_fired,
                mass, counts, log_priors, self.smoothing,
                self.prior_accuracy, low, high,
            )
            return responsibilities, loss

        return step

    def _pattern_posterior(self, patterns: np.ndarray) -> np.ndarray:
        return self._posterior(patterns)

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
