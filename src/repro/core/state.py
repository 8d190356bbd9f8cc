"""Explicit mutable run state of an :class:`~repro.core.framework.ActiveDP` run.

Separating the immutable trial description (dataset, config, seed) from the
mutable hot-loop state gives the framework three capabilities the original
attribute soup could not offer:

* **Snapshot/resume** — :meth:`TrainingState.snapshot` deep-copies the state
  (sharing immutable datasets and cached LF outputs) so a trial can be forked
  or resumed;
* **Incremental refit** — the ``lfs_dirty`` / ``pseudo_dirty`` flags record
  which inputs actually changed since the last refit, so the framework only
  re-runs LabelPick, the label model, the AL model and threshold tuning when
  their inputs moved;
* **Amortised label matrices** — the train/valid matrices are
  :class:`~repro.labeling.incremental.IncrementalLabelMatrix` column stores
  instead of per-iteration ``np.hstack`` rebuilds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.labelpick import LabelPickResult, LabelPickState
from repro.core.pseudo_labels import PseudoLabeledSet
from repro.labeling.incremental import IncrementalLabelMatrix
from repro.labeling.lf import LabelFunction


@dataclass
class TrainingState:
    """Everything an ActiveDP run mutates between iterations.

    Attributes
    ----------
    train_matrix, valid_matrix:
        Incrementally grown label matrices on the train/valid splits.
    lfs:
        The collected LF set ``Lambda_t`` (column order of the matrices).
    pseudo:
        Pseudo-labelled query instances.
    queried:
        Pool indices queried so far, in order.
    selection:
        LabelPick's current LF subset.
    label_model, al_model:
        The fitted models (``None`` until first successful fit).
    lm_fit_selection:
        The LF indices (into ``lfs``) whose columns ``label_model`` was
        fitted on.  Together with the carried model it lets the next refit
        warm-start EM whenever the new selection intersects this one (the
        shared columns are mapped onto their carried parameters); ``None``
        until the first fit.
    lm_em_iterations:
        Cumulative EM iterations spent on label-model fits over the whole
        run (diagnostics; the warm-start benchmark reads it).
    lm_fits, lm_warm_fits:
        How many label-model fits ran / how many of them were EM-warm-started
        from the carried previous fit (skip-outright reuses of an unchanged
        selection count as neither).
    lm_converged_fits:
        How many of those fits stopped on their convergence criterion before
        exhausting ``max_iter`` (EM stops on the relative loss change, so
        this should be nearly all of them).
    lm_final_loss:
        Mean per-instance negative log-likelihood of the most recent EM fit
        (``None`` until an EM model fits, or when the configured model does
        not report a loss).
    al_fits, al_warm_fits:
        Same counters for the active-learning model's refits.
    labelpick:
        Carried :class:`~repro.core.labelpick.LabelPickState` making the
        structure-learning step incremental (its own ``n_fits`` /
        ``n_warm_fits`` counters track graphical-lasso fits).
    threshold:
        ConFusion confidence threshold (``None`` before the AL model exists).
    lm_proba_train, al_proba_train, al_proba_valid:
        Cached model predictions, invalidated by refits only.
    lm_proba_valid:
        The label model's posterior on the validation split.  A label-model
        fit leaves it ``None``; ConFusion's threshold tuning, its only
        reader, predicts it on first read once an AL model exists, and it
        stays until the next fit.  A run without pseudo-labels (an LF-set
        replay) never fills it.
    iteration:
        Number of completed iterations.
    rng:
        The sampler's tie-breaking generator.  Part of the state so a
        snapshot resumes with the exact random stream (the samplers
        themselves are stateless).
    lfs_dirty:
        An LF column was appended since the last refit.
    pseudo_dirty:
        A pseudo-label was recorded since the last refit.
    """

    train_matrix: IncrementalLabelMatrix
    valid_matrix: IncrementalLabelMatrix
    lfs: list[LabelFunction] = field(default_factory=list)
    pseudo: PseudoLabeledSet = field(default_factory=PseudoLabeledSet)
    queried: list[int] = field(default_factory=list)
    selection: LabelPickResult = field(
        default_factory=lambda: LabelPickResult(selected_indices=[])
    )
    label_model: object | None = None
    lm_fit_selection: list[int] | None = None
    lm_em_iterations: int = 0
    lm_fits: int = 0
    lm_warm_fits: int = 0
    lm_converged_fits: int = 0
    lm_final_loss: float | None = None
    al_fits: int = 0
    al_warm_fits: int = 0
    labelpick: LabelPickState = field(default_factory=LabelPickState)
    al_model: object | None = None
    threshold: float | None = None
    lm_proba_train: np.ndarray | None = None
    lm_proba_valid: np.ndarray | None = None
    al_proba_train: np.ndarray | None = None
    al_proba_valid: np.ndarray | None = None
    iteration: int = 0
    rng: np.random.Generator | None = None
    lfs_dirty: bool = True
    pseudo_dirty: bool = True

    @classmethod
    def initial(cls, train, valid, rng: np.random.Generator | None = None) -> "TrainingState":
        """Fresh state for a run over the given train/valid splits."""
        return cls(
            train_matrix=IncrementalLabelMatrix(train),
            valid_matrix=IncrementalLabelMatrix(valid),
            rng=rng,
        )

    # ------------------------------------------------------------ dirty flags
    def mark_lf_added(self) -> None:
        """Record that a new LF column exists since the last refit."""
        self.lfs_dirty = True

    def mark_pseudo_added(self) -> None:
        """Record that a new pseudo-label exists since the last refit."""
        self.pseudo_dirty = True

    def clear_dirty(self) -> None:
        """Mark the fitted models as consistent with the current inputs."""
        self.lfs_dirty = False
        self.pseudo_dirty = False

    # ------------------------------------------------------------ diagnostics
    def fit_counters(self) -> dict:
        """Cumulative fit counters, keyed by ``IterationRecord`` field names.

        The single source of the counter→record mapping: every pipeline
        that builds an ActiveDP ``IterationRecord`` reads it, so the record
        fields can never drift apart.
        """
        return {
            "lm_em_iterations": self.lm_em_iterations,
            "lm_fits": self.lm_fits,
            "lm_warm_fits": self.lm_warm_fits,
            "lm_converged_fits": self.lm_converged_fits,
            "lm_final_loss": self.lm_final_loss,
            "al_fits": self.al_fits,
            "al_warm_fits": self.al_warm_fits,
            "glasso_fits": self.labelpick.n_fits,
            "glasso_warm_fits": self.labelpick.n_warm_fits,
            "glasso_sweeps": self.labelpick.n_sweeps,
        }

    # ---------------------------------------------------------------- persist
    def snapshot(self) -> "TrainingState":
        """Deep copy of the state (datasets and cached LF outputs are shared)."""
        return copy.deepcopy(self)
