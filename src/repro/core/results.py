"""Run-history containers for interactive labelling runs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IterationRecord:
    """Snapshot of one interactive iteration.

    Attributes
    ----------
    iteration:
        Zero-based iteration number.
    query_index:
        Pool index shown to the user.
    lf_name:
        Name of the LF returned by the user (``None`` if no LF was returned).
    pseudo_label:
        Pseudo-label recorded for the query instance (``-1`` when none).
    n_lfs:
        Total number of LFs collected so far.
    n_selected_lfs:
        Number of LFs kept by LabelPick for the label model.
    threshold:
        ConFusion confidence threshold in effect (``None`` before the AL
        model exists).
    lm_em_iterations:
        Cumulative EM iterations spent on label-model (re)fits up to this
        iteration (``None`` for pipelines that do not report it).  The
        warm-start benchmark reads the final record's value.
    lm_fits, lm_warm_fits:
        Cumulative label-model fit / warm-started-fit counts up to this
        iteration (``None`` for pipelines that do not report them).  The
        warm-start benchmark derives its warm-refit rate — warm fits per
        post-first fit — from the final record's values.
    al_fits, al_warm_fits:
        Same cumulative counters for the active-learning model.
    glasso_fits, glasso_warm_fits:
        Same cumulative counters for LabelPick's graphical-lasso structure
        learning — *incremental path only*: a ``LabelPick.select`` call
        without a carried state runs statelessly and leaves these at 0
        (they measure carried-state fits, not whether the glasso ran at
        all).
    lm_converged_fits:
        Cumulative label-model fits that stopped on their convergence
        criterion before exhausting ``max_iter`` (``None`` for pipelines
        that do not report it).
    lm_final_loss:
        Mean per-instance negative log-likelihood of the most recent
        label-model EM fit at this iteration (``None`` when no EM model
        has fitted, or the pipeline does not report it).
    glasso_sweeps:
        Cumulative outer glasso sweeps across LabelPick's incremental
        structure-learning fits (same incremental-path-only caveat as
        ``glasso_fits``).
    label_coverage:
        Fraction of the training pool that received an aggregated label.
    label_accuracy:
        Accuracy of the aggregated labels on the covered training instances
        (diagnostics; uses ground truth).
    test_accuracy:
        Downstream-model test accuracy, when evaluated at this iteration.
    """

    iteration: int
    query_index: int
    lf_name: str | None = None
    pseudo_label: int = -1
    n_lfs: int = 0
    n_selected_lfs: int = 0
    threshold: float | None = None
    lm_em_iterations: int | None = None
    lm_fits: int | None = None
    lm_warm_fits: int | None = None
    al_fits: int | None = None
    al_warm_fits: int | None = None
    glasso_fits: int | None = None
    glasso_warm_fits: int | None = None
    lm_converged_fits: int | None = None
    lm_final_loss: float | None = None
    glasso_sweeps: int | None = None
    label_coverage: float | None = None
    label_accuracy: float | None = None
    test_accuracy: float | None = None


@dataclass
class RunHistory:
    """Full history of an interactive run (one framework, one dataset, one seed).

    ``artifacts`` is an optional payload of final outputs a pipeline chose to
    export beyond the per-iteration metric records — e.g. the aggregated
    training labels, per-LF diagnostics and end-model predictions the serving
    layer returns to label-request clients.  It must be plain JSON-able
    Python (dicts/lists/numbers/strings), so a stored history serialises
    identically everywhere; ``None`` means the pipeline exported nothing.
    """

    framework: str
    dataset: str
    seed: int
    records: list[IterationRecord] = field(default_factory=list)
    artifacts: dict | None = None

    def add(self, record: IterationRecord) -> None:
        """Append one iteration record."""
        self.records.append(record)

    @property
    def n_iterations(self) -> int:
        """Number of recorded iterations."""
        return len(self.records)

    def evaluation_points(self) -> list[tuple[int, float]]:
        """Return ``(iteration, test_accuracy)`` pairs where evaluation happened."""
        return [
            (record.iteration, record.test_accuracy)
            for record in self.records
            if record.test_accuracy is not None
        ]

    def average_test_accuracy(self) -> float:
        """Average test accuracy over all evaluation points (area under the curve)."""
        points = self.evaluation_points()
        if not points:
            return 0.0
        return float(sum(acc for _, acc in points) / len(points))

    def final_test_accuracy(self) -> float:
        """Test accuracy at the last evaluation point."""
        points = self.evaluation_points()
        return points[-1][1] if points else 0.0
