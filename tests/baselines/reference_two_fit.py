"""The served cold trial computing its outputs twice, kept as a test oracle.

The shipped ``lfset`` trial keeps its last checkpoint's aggregation and end
model for the export, and ActiveDP predicts the label model's validation
posterior only when threshold tuning reads it.  This module keeps the
earlier code verbatim, which did both eagerly:

* :func:`export_labeling_artifacts` aggregates and fits the end model
  itself, although the final checkpoint has just done the same;
* :class:`TwoFitLFSetPipeline` is the LF-set replay with the base
  class's checkpoint evaluation and that export;
* :class:`EagerValidActiveDP` predicts ``lm_proba_valid`` at every
  label-model refit, whether or not an AL model exists to read it.

:func:`two_fit_pipelines` makes trials run in this process build both, so
``run_trial`` on a served spec runs the oracle.  The content keys are
unchanged, so its histories must not be written to a shared result store.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.baselines.base import InteractivePipeline
from repro.baselines.lfset import LFSetPipeline
from repro.core.evaluation import fit_end_model
from repro.core.framework import ActiveDP
from repro.datasets.base import DataSplit
from repro.label_models import EM_LABEL_MODELS, get_label_model
from repro.labeling.analysis import LFAnalysis


def export_labeling_artifacts(
    framework: ActiveDP, data_split: DataSplit, end_model_C: float = 1.0
) -> dict:
    """Final serving payload of an ActiveDP run, as plain JSON-able Python."""
    aggregated = framework.aggregate_labels()
    labels = {
        "values": [int(value) for value in aggregated.labels],
        "accepted": [bool(flag) for flag in aggregated.accepted],
        "coverage": float(aggregated.coverage),
        "threshold": float(aggregated.threshold),
    }
    diagnostics = []
    if framework.lfs:
        analysis = LFAnalysis(
            framework.state.valid_matrix.matrix,
            [lf.name for lf in framework.lfs],
        )
        for summary in analysis.summary(data_split.valid.labels):
            diagnostics.append(
                {
                    "name": summary.name,
                    "polarity": [int(label) for label in summary.polarity],
                    "coverage": float(summary.coverage),
                    "overlap": float(summary.overlap),
                    "conflict": float(summary.conflict),
                    "accuracy": None
                    if summary.accuracy is None
                    else float(summary.accuracy),
                    "n_correct": int(summary.n_correct),
                    "n_labeled": int(summary.n_labeled),
                }
            )
    end_model = None
    indices = np.flatnonzero(aggregated.accepted)
    model = fit_end_model(data_split.train, indices, aggregated.labels[indices], C=end_model_C)
    if model is not None:
        test = data_split.test
        predictions = model.predict(test.features)
        end_model = {
            "test_predictions": [int(label) for label in predictions],
            "test_accuracy": float(np.mean(predictions == test.labels)),
        }
    return {"labels": labels, "lf_diagnostics": diagnostics, "end_model": end_model}


class TwoFitLFSetPipeline(LFSetPipeline):
    """The LF-set replay whose export aggregates and fits once more."""

    evaluate = InteractivePipeline.evaluate

    def export_artifacts(self) -> dict:
        return export_labeling_artifacts(
            self.framework, self.data, end_model_C=self.end_model_C
        )


class EagerValidActiveDP(ActiveDP):
    """ActiveDP predicting the label model's validation posterior at every fit."""

    def _fit_label_model(self) -> None:
        state = self.state
        selected = list(state.selection.selected_indices)
        if not selected:
            state.label_model = None
            state.lm_fit_selection = None
            state.lm_proba_train = None
            state.lm_proba_valid = None
            return
        train_matrix = state.train_matrix.columns(selected)
        model = state.label_model
        # Columns are append-only, so an identical selection means the carried
        # model was fitted on this exact matrix — EM from a converged fit is a
        # no-op, skip it entirely (only forced refits land here unchanged).
        reuse = model is not None and state.lm_fit_selection == selected
        if reuse and state.lm_proba_train is not None and state.lm_proba_valid is not None:
            # The cached probabilities were computed from this exact model and
            # matrix; recomputing them would reproduce them bit for bit.
            return
        if reuse:
            state.lm_proba_train = model.predict_proba(train_matrix)
        else:
            warm_start = self._label_model_warm_start(selected)
            kwargs = {}
            if self.config.label_model in EM_LABEL_MODELS:
                kwargs = {"early_stop": True}
            model = get_label_model(
                self.config.label_model, n_classes=self.n_classes, **kwargs
            )
            state.lm_proba_train = model.fit_predict_proba(
                train_matrix, warm_start=warm_start
            )
            state.label_model = model
            state.lm_fit_selection = selected
            state.lm_em_iterations += int(getattr(model, "n_iter_", 0) or 0)
            state.lm_fits += 1
            if getattr(model, "warm_started_", False):
                state.lm_warm_fits += 1
            if getattr(model, "converged_", False):
                state.lm_converged_fits += 1
            final_loss = getattr(model, "final_loss_", None)
            if final_loss is not None:
                state.lm_final_loss = float(final_loss)
        state.lm_proba_valid = model.predict_proba(
            state.valid_matrix.columns(selected)
        )


@contextlib.contextmanager
def two_fit_pipelines():
    """Build :class:`TwoFitLFSetPipeline` and :class:`EagerValidActiveDP` inside the block.

    Swaps the ``lfset`` registry entry and the class ``bind_activedp``
    instantiates, so ``activedp`` and ``lfset`` trials (and serving
    sessions) run the oracle.
    """
    import repro.baselines as registry_module
    import repro.baselines.activedp as binding_module

    shipped = registry_module._REGISTRY["lfset"], binding_module.ActiveDP
    registry_module._REGISTRY["lfset"] = TwoFitLFSetPipeline
    binding_module.ActiveDP = EagerValidActiveDP
    try:
        yield
    finally:
        registry_module._REGISTRY["lfset"], binding_module.ActiveDP = shipped
