"""LabelPick: label-function selection (paper Section 3.4).

LabelPick reduces LF selection to feature selection in a supervised setting:

1. **Accuracy pruning** — evaluate every candidate LF on the holdout
   validation set and drop LFs performing worse than random guessing.
2. **Markov-blanket selection** — build the small labelled dataset
   ``L_Lambda = {(Lambda_t(x_li), y~_li)}`` of LF outputs on the query
   instances paired with their pseudo-labels, estimate the dependency
   structure between LFs and the label with the graphical lasso, and keep
   only the LFs adjacent to the label (its Markov blanket).

When too few query instances have been collected for structure learning to
be meaningful, only the accuracy-pruning step applies (all surviving LFs are
kept), and if the estimated blanket is empty the pruned set is likewise kept
— pruning to zero LFs would silence the label model entirely.

Interactive frameworks re-run LabelPick every refit on an almost-unchanged
input (the query set gained a few rows, the LF set a column).  Passing a
:class:`LabelPickState` to :meth:`LabelPick.select` makes the structure-
learning step incremental: the empirical covariance is maintained by a
row/column-appending :class:`~repro.graphical.covariance.RunningCovariance`
and the graphical lasso resumes from the previous refit's estimate
(intersection-mapped over the shared survivors) instead of restarting cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphical.covariance import RunningCovariance, shrink_covariance
from repro.graphical.glasso import GraphicalLassoResult, graphical_lasso, is_finite
from repro.graphical.markov_blanket import markov_blanket
from repro.labeling.lf import ABSTAIN, LabelFunction


@dataclass
class LabelPickResult:
    """Outcome of one LabelPick selection pass.

    Attributes
    ----------
    selected_indices:
        Indices (into the full LF list) of the selected LFs.
    pruned_low_accuracy:
        Indices that failed the accuracy-pruning step.  Normally disjoint
        from ``selected_indices``, except in the keep-all fallback (every LF
        failed pruning and all were resurrected), where both lists cover the
        full LF set.
    pruned_structure:
        Indices dropped by the Markov-blanket step.
    used_structure_learning:
        Whether the graphical-lasso step actually ran.
    """

    selected_indices: list[int]
    pruned_low_accuracy: list[int] = field(default_factory=list)
    pruned_structure: list[int] = field(default_factory=list)
    used_structure_learning: bool = False

    def select(self, lfs: list[LabelFunction]) -> list[LabelFunction]:
        """Return the selected subset of *lfs*."""
        return [lfs[i] for i in self.selected_indices]


@dataclass
class LabelPickState:
    """Carried structure-learning state for incremental LabelPick refits.

    Owned by the caller (ActiveDP keeps one inside its ``TrainingState``) and
    mutated by :meth:`LabelPick.select` when passed in.  All fields refer to
    the *same* run: the accumulator's column layout is ``[pseudo-label,
    LF_0, LF_1, ...]`` over the pseudo-labelled query rows, both append-only.

    Attributes
    ----------
    covariance:
        Incrementally maintained empirical covariance of LF outputs and the
        pseudo-label on the query instances (``None`` until structure
        learning first runs).
    glasso_result:
        The previous refit's graphical-lasso estimate, seeding the next one.
    glasso_survivors:
        LF indices (into the full LF list) of the variables
        ``glasso_result`` was estimated over, in order (the pseudo-label is
        always the implicit last variable).
    n_fits, n_warm_fits:
        How many graphical-lasso fits ran, and how many of them resumed from
        a previous estimate (diagnostics; the warm-start benchmark reads
        them).
    n_sweeps:
        Cumulative outer block-coordinate sweeps across all incremental
        glasso fits (diagnostics; surfaced per iteration as
        ``glasso_sweeps``).
    """

    covariance: RunningCovariance | None = None
    glasso_result: GraphicalLassoResult | None = None
    glasso_survivors: list[int] | None = None
    n_fits: int = 0
    n_warm_fits: int = 0
    n_sweeps: int = 0


class LabelPick:
    """Accuracy pruning + graphical-lasso Markov-blanket LF selection.

    Parameters
    ----------
    glasso_alpha:
        L1 penalty of the graphical lasso.
    min_queries:
        Minimum number of pseudo-labelled query instances before structure
        learning is attempted.
    accuracy_threshold:
        Validation accuracy below which an LF is pruned.  ``None`` uses the
        better-than-random bound ``1 / n_classes``.

    The graphical lasso stops once a sweep changes the covariance iterate by
    less than :attr:`GLASSO_RTOL` of its own mean absolute entry.
    """

    def __init__(
        self,
        glasso_alpha: float = 0.01,
        min_queries: int = 8,
        accuracy_threshold: float | None = None,
    ):
        if glasso_alpha < 0:
            raise ValueError("glasso_alpha must be non-negative")
        if min_queries < 2:
            raise ValueError("min_queries must be >= 2")
        self.glasso_alpha = glasso_alpha
        self.min_queries = min_queries
        self.accuracy_threshold = accuracy_threshold

    # ---------------------------------------------------------------- select
    def select(
        self,
        lfs: list[LabelFunction],
        valid_label_matrix: np.ndarray,
        valid_labels: np.ndarray,
        query_label_matrix: np.ndarray,
        pseudo_labels: np.ndarray,
        n_classes: int,
        state: LabelPickState | None = None,
    ) -> LabelPickResult:
        """Run both LabelPick stages and return the selection result.

        Parameters
        ----------
        lfs:
            The full candidate LF list ``Lambda_t``.
        valid_label_matrix:
            LF outputs on the validation set, shape ``(n_valid, n_lfs)``.
        valid_labels:
            Ground-truth validation labels.
        query_label_matrix:
            LF outputs on the query instances, shape ``(n_queries, n_lfs)``.
        pseudo_labels:
            Pseudo-labels of the query instances.
        n_classes:
            Number of classes in the task.
        state:
            Optional carried :class:`LabelPickState` making the structure-
            learning step incremental across calls of the *same* run (rows
            and LF columns append-only).  ``None`` (default) keeps every
            call independent and cold-started.
        """
        n_lfs = len(lfs)
        if n_lfs == 0:
            return LabelPickResult(selected_indices=[])
        if valid_label_matrix.shape[1] != n_lfs or query_label_matrix.shape[1] != n_lfs:
            raise ValueError("label matrices must have one column per LF")

        threshold = (
            self.accuracy_threshold
            if self.accuracy_threshold is not None
            else 1.0 / n_classes
        )
        survivors, pruned_low = self._accuracy_prune(
            valid_label_matrix, valid_labels, threshold
        )
        if not survivors:
            # Never silence the label model completely: if every LF fails the
            # validation check, keep them all and let aggregation sort it out
            # — but still report which LFs failed the pruning step, so
            # diagnostics don't claim nothing was pruned in exactly the case
            # where everything was.
            return LabelPickResult(
                selected_indices=list(range(n_lfs)),
                pruned_low_accuracy=pruned_low,
            )

        if len(pseudo_labels) < self.min_queries or len(survivors) < 2:
            return LabelPickResult(
                selected_indices=survivors,
                pruned_low_accuracy=pruned_low,
            )

        selected, pruned_structure = self._markov_blanket_select(
            survivors, query_label_matrix, pseudo_labels, state
        )
        if not selected:
            return LabelPickResult(
                selected_indices=survivors,
                pruned_low_accuracy=pruned_low,
                used_structure_learning=True,
            )
        return LabelPickResult(
            selected_indices=selected,
            pruned_low_accuracy=pruned_low,
            pruned_structure=pruned_structure,
            used_structure_learning=True,
        )

    # -------------------------------------------------------------- internals
    def _accuracy_prune(
        self,
        valid_label_matrix: np.ndarray,
        valid_labels: np.ndarray,
        threshold: float,
    ) -> tuple[list[int], list[int]]:
        """Drop LFs whose validation accuracy is at or below *threshold*.

        Fully vectorised: one masked reduction over the ``(n_valid, n_lfs)``
        matrix instead of a Python loop over columns.
        """
        matrix = np.asarray(valid_label_matrix, dtype=int)
        labels = np.asarray(valid_labels, dtype=int)
        fired = matrix != ABSTAIN
        n_fired = fired.sum(axis=0)
        n_correct = (fired & (matrix == labels[:, None])).sum(axis=0)
        accuracy = n_correct / np.maximum(n_fired, 1)
        # An LF that never fires on the validation set provides no evidence
        # either way; keep it (the structure step can still drop it).
        pruned_mask = (n_fired > 0) & (accuracy <= threshold)
        survivors = np.flatnonzero(~pruned_mask).tolist()
        pruned = np.flatnonzero(pruned_mask).tolist()
        return survivors, pruned

    #: Identity shrinkage applied to the query-set covariance before the
    #: graphical lasso (the labelled subset is tiny early in a run).
    COV_SHRINKAGE = 0.1
    #: Outer-sweep budget of the per-refit graphical lasso.
    GLASSO_MAX_ITER = 20
    #: Relative tolerance of the per-refit graphical lasso: sweeps stop once
    #: the covariance changes by less than 1% of its own mean absolute entry.
    GLASSO_RTOL = 1e-2

    def _markov_blanket_select(
        self,
        survivors: list[int],
        query_label_matrix: np.ndarray,
        pseudo_labels: np.ndarray,
        state: LabelPickState | None = None,
    ) -> tuple[list[int], list[int]]:
        """Keep survivors adjacent to the label in the glasso dependency graph."""
        data = np.column_stack([
            query_label_matrix[:, survivors].astype(float),
            np.asarray(pseudo_labels, dtype=float),
        ])
        # Degenerate columns (constant output on every query instance) make
        # the covariance singular; the shrinkage applied below handles that,
        # but a fully constant matrix carries no structure.
        if np.allclose(data.std(axis=0), 0.0):
            return list(survivors), []

        if state is None:
            result = graphical_lasso(
                data,
                alpha=self.glasso_alpha,
                shrinkage=self.COV_SHRINKAGE,
                max_iter=self.GLASSO_MAX_ITER,
                tol=self.GLASSO_RTOL,
            )
        else:
            result = self._incremental_glasso(
                state, survivors, query_label_matrix, pseudo_labels
            )
        label_index = data.shape[1] - 1
        blanket = markov_blanket(result.precision, target=label_index)
        selected = [survivors[i] for i in blanket if i < len(survivors)]
        pruned = [j for j in survivors if j not in selected]
        return selected, pruned

    def _incremental_glasso(
        self,
        state: LabelPickState,
        survivors: list[int],
        query_label_matrix: np.ndarray,
        pseudo_labels: np.ndarray,
    ) -> GraphicalLassoResult:
        """Structure learning resumed from the carried :class:`LabelPickState`.

        The covariance accumulator absorbs only the rows/columns appended
        since the previous refit, and the glasso iterates are seeded from
        the previous estimate with shared survivors intersection-mapped onto
        their new positions (brand-new or re-ordered-away variables keep the
        cold initialisation).  The optimisation problem itself is unchanged,
        so the selection agrees with the cold path up to solver tolerance.
        A non-finite estimate is never carried: the next fit starts cold.
        """
        if state.covariance is None:
            state.covariance = RunningCovariance()
        # Accumulator layout: [pseudo-label | LF_0 | LF_1 | ...] so both the
        # label column (position 0) and the LF columns keep stable positions
        # as the LF set grows.
        state.covariance.update(
            np.column_stack([
                np.asarray(pseudo_labels, dtype=float),
                np.asarray(query_label_matrix, dtype=float),
            ])
        )
        variables = [1 + j for j in survivors] + [0]
        # Sub-blocks of the full covariance are the sub-matrix covariances
        # exactly; shrinkage must target the sub-block's own scale.
        covariance = shrink_covariance(
            state.covariance.covariance()[np.ix_(variables, variables)],
            self.COV_SHRINKAGE,
        )

        warm_start_map = None
        if state.glasso_result is not None and state.glasso_survivors is not None:
            previous_position = {
                j: position for position, j in enumerate(state.glasso_survivors)
            }
            warm_start_map = np.array(
                [previous_position.get(j, -1) for j in survivors]
                + [len(state.glasso_survivors)],
                dtype=int,
            )
        result = graphical_lasso(
            covariance,
            alpha=self.glasso_alpha,
            from_covariance=True,
            max_iter=self.GLASSO_MAX_ITER,
            tol=self.GLASSO_RTOL,
            warm_start=state.glasso_result,
            warm_start_map=warm_start_map,
        )
        carried = is_finite(result)
        state.glasso_result = result if carried else None
        state.glasso_survivors = list(survivors) if carried else None
        state.n_fits += 1
        state.n_sweeps += result.n_iter
        if result.warm_started:
            state.n_warm_fits += 1
        return result
