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

from repro.label_models.base import EMLabelModel
from repro.labeling.lf import ABSTAIN
from repro.numerics.em import generative_masks, generative_posterior, generative_step


class GenerativeLabelModel(EMLabelModel):
    """EM-trained Dawid-Skene label model with abstain-aware CPTs.

    A warm start seeds the initial responsibilities from the carried CPTs of
    every column the payload's map covers; columns new to the fit receive
    their CPTs from the first M-step under those responsibilities.

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

    def _set_empty_params(self) -> None:
        self.cpts_ = np.zeros((0, self.n_classes, self.n_classes + 1))

    def _warm_posterior(self, params, column_map, matrix, patterns):
        carried = np.asarray(params.get("cpts", np.empty((0,))), dtype=float)
        if carried.ndim != 3 or carried.shape[1:] != (self.n_classes, self.n_classes + 1):
            return None
        mapped = column_map >= 0
        return self._posterior(
            self._encode(patterns)[:, mapped], carried[column_map[mapped]]
        )

    def _em_step(self, patterns, log_priors):
        masks = generative_masks(self._encode(patterns), self.n_classes + 1)

        def step(mass, counts):
            self.cpts_, responsibilities, loss = generative_step(
                masks, mass, counts, log_priors, self.smoothing
            )
            return responsibilities, loss

        return step

    def _pattern_posterior(self, patterns: np.ndarray) -> np.ndarray:
        return self._posterior(self._encode(patterns), self.cpts_)

    def _posterior(self, outcomes: np.ndarray, cpts: np.ndarray) -> np.ndarray:
        """E-step under the given CPTs (shared with the fit loop's step)."""
        return generative_posterior(outcomes, cpts, self.class_priors_)

    def _warm_start_params(self) -> dict | None:
        if not hasattr(self, "cpts_") or self.cpts_.shape[0] == 0:
            return None
        return {"cpts": self.cpts_.copy()}
