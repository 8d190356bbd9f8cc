"""One checkpoint evaluation, one ActiveDP binding, one replay step.

A checkpoint reads the generated labels once: ``run_trial_on_split``
aggregates (or calls ``generate_labels``) exactly once per evaluation point,
and a label payload aggregates once.  A served ``lfset`` trial's export
reuses its last checkpoint's aggregation and end model, and ActiveDP
predicts the label model's validation posterior only for threshold tuning;
both match the oracle in ``reference_two_fit``, which does each eagerly.
Every ActiveDP-backed surface builds its framework through
:func:`bind_activedp`, which consumes one draw.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from reference_two_fit import EagerValidActiveDP, two_fit_pipelines

from repro.baselines import IWSPipeline, NemoPipeline, RevisingLFPipeline, get_pipeline
from repro.baselines.activedp import bind_activedp
from repro.baselines.lfset import LFSetPipeline, replay_lf
from repro.core.evaluation import Evaluation, evaluate_labels
from repro.core.framework import ActiveDP
from repro.datasets import load_dataset
from repro.experiments import EvaluationProtocol
from repro.labeling.wire import lf_from_wire
from repro.models.logistic_regression import LogisticRegression
from repro.runner.executor import run_trial, run_trial_on_split
from repro.serving.schemas import canonical_json, label_payload, parse_label_request
from repro.serving.sessions import LabelingSession
from repro.utils.rng import ensure_rng

PROTOCOL = EvaluationProtocol(n_iterations=12, eval_every=3, n_seeds=1)
N_CHECKPOINTS = len(PROTOCOL.evaluation_iterations())
LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "subscribe", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
    {"type": "keyword", "keyword": "love", "label": 0},
]


def _count_calls(monkeypatch, cls, name) -> list:
    """Wrap ``cls.name`` so every call appends to the returned list."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestOneReadPerCheckpoint:
    def test_activedp_trial_aggregates_once_per_checkpoint(self, monkeypatch, tiny_text_split):
        calls = _count_calls(monkeypatch, ActiveDP, "aggregate_labels")
        history = run_trial_on_split("activedp", tiny_text_split, PROTOCOL, seed=0)
        assert N_CHECKPOINTS == 4
        assert len(history.evaluation_points()) == N_CHECKPOINTS
        assert len(calls) == N_CHECKPOINTS

    @pytest.mark.parametrize("cls", [NemoPipeline, IWSPipeline, RevisingLFPipeline])
    def test_baseline_trial_generates_labels_once_per_checkpoint(
        self, monkeypatch, cls, tiny_text_split
    ):
        calls = _count_calls(monkeypatch, cls, "generate_labels")
        run_trial_on_split(cls.name, tiny_text_split, PROTOCOL, seed=0)
        assert len(calls) == N_CHECKPOINTS

    def test_lfset_export_aggregates_once(self, monkeypatch):
        split = load_dataset("youtube", scale=0.15, random_state=7)
        pipeline = LFSetPipeline(split, random_state=7, lfs=LFS)
        pipeline.run(len(LFS))
        calls = _count_calls(monkeypatch, ActiveDP, "aggregate_labels")
        artifacts = pipeline.export_artifacts()
        assert artifacts["end_model"] is not None
        assert len(calls) == 1

    def test_session_label_payload_aggregates_once(self, monkeypatch):
        session = LabelingSession("count", "youtube", seed=7, scale=0.15)
        for lf in LFS:
            session.add_lf(lf)
        calls = _count_calls(monkeypatch, ActiveDP, "aggregate_labels")
        payload = session.label_payload()
        assert payload["end_model"] is not None
        assert len(calls) == 1


def _served(**fields):
    """A serve-shaped cold request (youtube@0.15, seed 7) as a trial spec."""
    return parse_label_request(
        {"dataset": "youtube", "lfs": LFS, "seed": 7, "scale": 0.15, **fields}
    )


def _records(history) -> list[dict]:
    return [dataclasses.asdict(record) for record in history.records]


class TestOneFitPerServedTrial:
    @pytest.mark.parametrize("fields", [{}, {"eval_every": 2}, {"end_model_C": 0.5}])
    def test_cold_request_fits_and_aggregates_once_at_the_end(self, monkeypatch, fields):
        # No queries, so no AL model: every LogisticRegression fit is an end model.
        spec = _served(**fields)
        checkpoints = len(spec.protocol.evaluation_iterations())
        fits = _count_calls(monkeypatch, LogisticRegression, "fit")
        aggregations = _count_calls(monkeypatch, ActiveDP, "aggregate_labels")
        history = run_trial(spec)
        assert history.artifacts["end_model"] is not None
        assert len(fits) == len(aggregations) == checkpoints

    def test_export_with_another_C_fits_its_own_model(self, monkeypatch):
        split = load_dataset("youtube", scale=0.15, random_state=7)
        protocol = EvaluationProtocol(n_iterations=len(LFS), eval_every=len(LFS), end_model_C=2.0)
        kwargs = {"lfs": LFS, "end_model_C": 1.0}
        fits = _count_calls(monkeypatch, LogisticRegression, "fit")
        history = run_trial_on_split("lfset", split, protocol, 7, kwargs)
        assert len(fits) == 2
        pipeline = LFSetPipeline(split, random_state=7, **kwargs)
        pipeline.run(len(LFS))
        assert history.artifacts == pipeline.export_artifacts()

    def test_export_after_more_steps_fits_its_own_model(self, monkeypatch):
        split = load_dataset("youtube", scale=0.15, random_state=7)
        pipeline = LFSetPipeline(split, random_state=7, lfs=LFS)
        pipeline.run(len(LFS) - 1)
        pipeline.evaluate()
        pipeline.step()
        fits = _count_calls(monkeypatch, LogisticRegression, "fit")
        artifacts = pipeline.export_artifacts()
        assert len(fits) == 1
        fresh = LFSetPipeline(split, random_state=7, lfs=LFS)
        fresh.run(len(LFS))
        assert artifacts == fresh.export_artifacts()

    @pytest.mark.parametrize("fields", [{}, {"eval_every": 1}, {"end_model_C": 0.5}])
    def test_served_payload_matches_the_two_fit_oracle(self, fields):
        spec = _served(**fields)
        history = run_trial(spec)
        with two_fit_pipelines():
            expected = run_trial(spec)
        assert _records(history) == _records(expected)
        assert canonical_json(label_payload(spec, history)) == canonical_json(
            label_payload(spec, expected)
        )

    def test_a_replay_never_predicts_the_validation_posterior(self):
        pipeline = LFSetPipeline(load_dataset("youtube", scale=0.15, random_state=7),
                                 random_state=7, lfs=LFS)
        pipeline.run(len(LFS))
        state = pipeline.framework.state
        assert state.label_model is not None and state.al_model is None
        assert state.lm_proba_valid is None


class TestLazyValidationPosterior:
    @pytest.mark.parametrize(
        "dataset,scale,seed", [("youtube", 0.3, 3), ("census", 0.3, 5)]
    )
    def test_activedp_trial_matches_the_eager_oracle(self, dataset, scale, seed):
        split = load_dataset(dataset, scale=scale, random_state=seed)
        protocol = EvaluationProtocol(n_iterations=30, eval_every=5)
        history = run_trial_on_split("activedp", split, protocol, seed)
        with two_fit_pipelines():
            expected = run_trial_on_split("activedp", split, protocol, seed)
        assert any(record.threshold is not None for record in history.records)
        assert [r.threshold for r in history.records] == [
            r.threshold for r in expected.records
        ]
        assert _records(history) == _records(expected)

    def test_the_posterior_read_is_the_eager_one(self, tiny_text_split):
        shipped = get_pipeline("activedp", tiny_text_split, random_state=0)
        with two_fit_pipelines():
            eager = get_pipeline("activedp", tiny_text_split, random_state=0)
        assert isinstance(eager.framework, EagerValidActiveDP)
        for _ in range(15):
            shipped.step()
            eager.step()
            if shipped.framework.state.lm_proba_valid is not None:
                np.testing.assert_array_equal(
                    shipped.framework.state.lm_proba_valid,
                    eager.framework.state.lm_proba_valid,
                )
        assert shipped.framework.state.lm_proba_valid is not None

    def test_evicted_then_resumed_session_is_byte_identical(self):
        straight = LabelingSession("a", "youtube", seed=7, scale=0.15)
        for lf in LFS:
            straight.add_lf(lf)
        interrupted = LabelingSession("a", "youtube", seed=7, scale=0.15)
        for lf in LFS[:2]:
            interrupted.add_lf(lf)
        resumed = LabelingSession.resume(interrupted.suspended_payload())
        for lf in LFS[2:]:
            resumed.add_lf(lf)
        assert canonical_json(resumed.label_payload()) == canonical_json(
            straight.label_payload()
        )
        with two_fit_pipelines():
            oracle = LabelingSession("a", "youtube", seed=7, scale=0.15)
            for lf in LFS:
                oracle.add_lf(lf)
            expected = oracle.label_payload()
        assert canonical_json(resumed.label_payload()) == canonical_json(expected)


class TestOneEvaluation:
    def test_pipeline_evaluation_matches_the_framework_api(self, tiny_text_split):
        pipeline = get_pipeline("activedp", tiny_text_split, random_state=0)
        pipeline.run(10)
        evaluation = pipeline.evaluate(0.5)
        framework = pipeline.framework
        quality = framework.label_quality()
        assert isinstance(evaluation, Evaluation)
        assert evaluation == (
            framework.evaluate_end_model(tiny_text_split.test, C=0.5),
            quality["coverage"],
            quality["accuracy"],
        )

    def test_no_labels_reads_the_majority_class(self, tiny_text_split):
        empty = np.array([], dtype=int)
        evaluation = evaluate_labels(tiny_text_split, empty, empty)
        valid = tiny_text_split.valid.labels
        majority = np.argmax(np.bincount(valid, minlength=tiny_text_split.n_classes))
        assert evaluation.test_accuracy == np.mean(tiny_text_split.test.labels == majority)
        assert (evaluation.label_coverage, evaluation.label_accuracy) == (0.0, 0.0)

    def test_coverage_and_accuracy_are_read_off_the_given_labels(self, tiny_text_split):
        train = tiny_text_split.train
        indices = np.arange(0, len(train), 2)
        labels = train.labels[indices].copy()
        labels[:5] = 1 - labels[:5]
        evaluation = evaluate_labels(tiny_text_split, indices, labels)
        assert evaluation.label_coverage == len(indices) / len(train)
        assert evaluation.label_accuracy == np.mean(labels == train.labels[indices])


class TestOneBinding:
    def test_binding_consumes_exactly_one_draw(self, tiny_text_split):
        rng = ensure_rng(11)
        framework = bind_activedp(tiny_text_split, rng, {"glasso_alpha": 0.02})
        reference = ensure_rng(11)
        seed = int(reference.integers(2**31 - 1))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert framework.rng.bit_generator.state == ensure_rng(seed).bit_generator.state
        assert framework.config.glasso_alpha == 0.02
        assert framework.config.alpha == 0.5

    def test_every_surface_binds_the_same_framework(self):
        split = load_dataset("youtube", scale=0.15, random_state=7)
        overrides = {"min_labelpick_queries": 4}
        surfaces = [
            get_pipeline("activedp", split, random_state=7, config_overrides=overrides),
            LFSetPipeline(split, random_state=7, lfs=LFS, config_overrides=overrides),
            LabelingSession("s", "youtube", seed=7, scale=0.15, config_overrides=overrides),
        ]
        frameworks = [surface.framework for surface in surfaces]
        for framework in frameworks:
            assert framework.config == frameworks[0].config
            assert framework.rng.bit_generator.state == frameworks[0].rng.bit_generator.state


class TestOneReplayStep:
    def test_duplicate_is_reported_and_not_refitted(self, tiny_text_split):
        framework = bind_activedp(tiny_text_split, ensure_rng(0))
        lf = lf_from_wire(LFS[0])
        assert replay_lf(framework, lf) is False
        fits = framework.state.fit_counters()
        assert replay_lf(framework, lf_from_wire(LFS[0])) is True
        assert len(framework.lfs) == 1
        assert framework.state.fit_counters() == fits

    def test_lfset_records_count_iterations_past_the_list(self):
        split = load_dataset("youtube", scale=0.15, random_state=7)
        pipeline = LFSetPipeline(split, random_state=7, lfs=LFS + LFS[:1])
        records = [pipeline.step() for _ in range(len(LFS) + 3)]
        assert [record.iteration for record in records] == list(range(len(LFS) + 3))
        repeated = lf_from_wire(LFS[0]).name
        assert [record.lf_name for record in records][len(LFS):] == [repeated, None, None]
        assert {record.n_lfs for record in records[len(LFS) - 1:]} == {len(LFS)}
        assert all(record.query_index == -1 for record in records)


class TestReadOnlyRunState:
    @pytest.mark.parametrize("name", ["queried", "selection", "iteration"])
    def test_run_state_accessors_are_read_only(self, name, tiny_text_split):
        framework = bind_activedp(tiny_text_split, ensure_rng(0))
        value = getattr(framework, name)
        assert value is getattr(framework.state, name)
        with pytest.raises(AttributeError):
            setattr(framework, name, value)
