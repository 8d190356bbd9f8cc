"""Replay a fixed LF set through ActiveDP: the serving layer's batch pipeline.

A label request to the serving layer names a dataset and a JSON list of
label functions (:mod:`repro.labeling.wire`).  To execute that request on
the existing worker fleet it must be an ordinary content-hashed trial, so
this pipeline turns the LF list into one: iteration *i* adds the *i*-th LF
to an :class:`~repro.core.framework.ActiveDP` instance and refits, exactly
as an interactive user streaming the same LFs would.  There is no simulated
user and no query sampling — the LF set *is* the user input, replayed.

Because the wire dicts are plain JSON values they content-hash cleanly
through ``pipeline_kwargs``, so two requests for the same dataset + LF set
share one cache entry, and the fleet never executes the same request twice.

After the last iteration :meth:`LFSetPipeline.export_artifacts` persists the
request's actual product on the trial history: aggregated training labels,
per-LF diagnostics and end-model test predictions, all as plain JSON-able
Python (see :func:`export_labeling_artifacts`, which interactive serving
sessions share so a streamed session and a batch replay of the same LFs
report identical payloads).  The two also share the one replay step,
:func:`replay_lf`.  The trial loop always evaluates the last iteration, so
the export reuses that checkpoint's aggregation and end model instead of
computing both a second time.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.activedp import ActiveDPBackedPipeline
from repro.core.confusion import AggregatedLabels
from repro.core.evaluation import Evaluation, fit_end_model, score_checkpoint
from repro.core.framework import ActiveDP
from repro.core.results import IterationRecord
from repro.datasets.base import DataSplit
from repro.labeling.analysis import LFAnalysis
from repro.labeling.lf import LabelFunction
from repro.labeling.wire import lf_from_wire
from repro.models.logistic_regression import LogisticRegression
from repro.utils.rng import RandomState

#: One ConFusion aggregation of the pool and the end model fitted on its
#: accepted rows (``None`` without any).
LabelingFit = tuple[AggregatedLabels, LogisticRegression | None]


def replay_lf(framework: ActiveDP, lf: LabelFunction) -> bool:
    """Add *lf* and refit, unless the run already holds it; returns ``duplicate``.

    A duplicate is reported, not re-added — the same guard the interactive
    framework applies to a simulated user repeating itself.
    """
    duplicate = lf in framework.lfs
    if not duplicate:
        framework.add_lf(lf)
        framework.refit()
    return duplicate


def fit_labeling(framework: ActiveDP, data_split: DataSplit, C: float) -> LabelingFit:
    """Aggregate *framework*'s labels once and fit the end model (inverse C) on them."""
    aggregated = framework.aggregate_labels()
    indices = np.flatnonzero(aggregated.accepted)
    return aggregated, fit_end_model(
        data_split.train, indices, aggregated.labels[indices], C=C
    )


def export_labeling_artifacts(
    framework: ActiveDP,
    data_split: DataSplit,
    end_model_C: float = 1.0,
    fitted: LabelingFit | None = None,
) -> dict:
    """Final serving payload of an ActiveDP run, as plain JSON-able Python.

    One definition for both execution styles — the batch replay pipeline
    below and the serving layer's interactive sessions — so streaming N LFs
    and replaying the same N LFs produce byte-identical payloads:

    * ``labels`` — ConFusion-aggregated training labels: hard values
      (``-1`` for rejected instances), acceptance mask, coverage and the
      confidence threshold in effect;
    * ``lf_diagnostics`` — per-LF coverage / overlap / conflict / empirical
      accuracy on the validation split (gold labels are legitimate there);
    * ``end_model`` — downstream logistic-regression test-set predictions
      and accuracy (``None`` while no labels exist to train on), fitted on
      the accepted rows of the one aggregation above.

    *fitted* is :func:`fit_labeling`'s result on the framework's current
    state with ``C=end_model_C``, when the caller already holds it;
    ``None`` computes it here.
    """
    aggregated, model = fitted or fit_labeling(framework, data_split, end_model_C)
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
    if model is not None:
        test = data_split.test
        predictions = model.predict(test.features)
        end_model = {
            "test_predictions": [int(label) for label in predictions],
            "test_accuracy": float(np.mean(predictions == test.labels)),
        }
    return {"labels": labels, "lf_diagnostics": diagnostics, "end_model": end_model}


class LFSetPipeline(ActiveDPBackedPipeline):
    """Replay a wire-schema LF list through ActiveDP, one LF per iteration.

    Parameters
    ----------
    lfs:
        Non-empty list of JSON wire dicts (see :mod:`repro.labeling.wire`).
        Iteration *i* adds ``lfs[i]``; iterations beyond the list length
        add nothing (so any ``n_iterations >= len(lfs)`` protocol is valid).
        Replay is deterministic; the seed only binds the framework.
    end_model_C:
        Inverse regularisation of the exported end model (part of the
        content hash via ``pipeline_kwargs``).

    Each :meth:`evaluate` keeps its aggregation and end model, keyed by
    the iteration and C; :meth:`export_artifacts` reuses them when both
    match its own state and ``end_model_C``, and fits its own otherwise.
    """

    name = "lfset"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        lfs: list[dict] | None = None,
        config_overrides: dict | None = None,
        end_model_C: float = 1.0,
    ):
        if not lfs:
            raise ValueError("lfs must be a non-empty list of wire-schema LF dicts")
        super().__init__(data_split, random_state, config_overrides)
        self.lfs = [lf_from_wire(payload) for payload in lfs]
        self.end_model_C = float(end_model_C)
        # The last checkpoint's fit, keyed by (iteration, C).
        self._checkpoint: dict[tuple[int, float], LabelingFit] = {}

    def step(self) -> IterationRecord:
        """Replay the next LF from the list (if any remain)."""
        lf = None
        if self.iteration < len(self.lfs):
            lf = self.lfs[self.iteration]
            replay_lf(self.framework, lf)
        self.iteration += 1
        return self.framework.record_iteration(-1, lf)

    def evaluate(self, C: float = 1.0) -> Evaluation:
        """One checkpoint (the base class's numbers), kept for :meth:`export_artifacts`."""
        fitted = fit_labeling(self.framework, self.data, C)
        self._checkpoint = {(self.iteration, float(C)): fitted}
        aggregated, model = fitted
        indices = np.flatnonzero(aggregated.accepted)
        return score_checkpoint(self.data, indices, aggregated.labels[indices], model)

    def export_artifacts(self) -> dict:
        """The request's product: labels, per-LF diagnostics, predictions."""
        fitted = self._checkpoint.get((self.iteration, self.end_model_C))
        return export_labeling_artifacts(
            self.framework, self.data, end_model_C=self.end_model_C, fitted=fitted
        )
