"""Tests for the baseline interactive pipelines and the common interface."""

import numpy as np
import pytest

from repro.baselines import (
    ActiveDPPipeline,
    IWSPipeline,
    NemoPipeline,
    RevisingLFPipeline,
    UncertaintySamplingPipeline,
    get_pipeline,
    pipeline_names,
)
from repro.label_models import MeTaLLabelModel
from repro.labeling import ABSTAIN

ALL_PIPELINES = pipeline_names()


class TestRegistry:
    def test_pipeline_names(self):
        assert set(ALL_PIPELINES) == {"activedp", "nemo", "iws", "revising_lf", "uncertainty"}

    def test_get_pipeline_has_no_aliases(self, tiny_text_split):
        # One name per framework, so one trial has one content key.
        for alias in ("us", "rlf"):
            with pytest.raises(ValueError):
                get_pipeline(alias, tiny_text_split)

    def test_unknown_pipeline_raises(self, tiny_text_split):
        with pytest.raises(ValueError):
            get_pipeline("snorkel", tiny_text_split)


@pytest.mark.parametrize("name", ALL_PIPELINES)
class TestCommonContract:
    def test_step_and_generate_labels(self, name, tiny_text_split):
        pipeline = get_pipeline(name, tiny_text_split, random_state=0)
        pipeline.run(8)
        indices, labels = pipeline.generate_labels()
        assert len(indices) == len(labels)
        if len(indices):
            assert indices.min() >= 0
            assert indices.max() < len(tiny_text_split.train)
            assert set(np.unique(labels)) <= {0, 1}
            assert ABSTAIN not in labels

    def test_evaluate_end_model_returns_probability(self, name, tiny_text_split):
        pipeline = get_pipeline(name, tiny_text_split, random_state=0)
        pipeline.run(6)
        accuracy = pipeline.evaluate(1.0).test_accuracy
        assert 0.0 <= accuracy <= 1.0

    def test_label_quality_bounds(self, name, tiny_text_split):
        pipeline = get_pipeline(name, tiny_text_split, random_state=0)
        pipeline.run(6)
        evaluation = pipeline.evaluate(1.0)
        assert 0.0 <= evaluation.label_coverage <= 1.0
        assert 0.0 <= evaluation.label_accuracy <= 1.0


class TestActiveDPPipeline:
    def test_noise_rate_builds_noisy_user(self, tiny_text_split):
        from repro.simulation import NoisySimulatedUser
        pipeline = ActiveDPPipeline(tiny_text_split, random_state=0, noise_rate=0.1)
        assert isinstance(pipeline.user, NoisySimulatedUser)

    def test_config_override(self, tiny_text_split):
        pipeline = ActiveDPPipeline(
            tiny_text_split, random_state=0, config_overrides={"sampler": "passive"}
        )
        assert pipeline.framework.sampler.name == "passive"

    def test_tabular_defaults_use_high_alpha(self, tiny_tabular_split):
        pipeline = ActiveDPPipeline(tiny_tabular_split, random_state=0)
        assert pipeline.config.alpha == 0.99

    def test_config_overrides_replace_single_fields(self, tiny_text_split):
        pipeline = ActiveDPPipeline(
            tiny_text_split,
            random_state=0,
            config_overrides={"glasso_alpha": 0.02, "min_labelpick_queries": 5},
        )
        # Overrides land on top of the per-kind defaults.
        assert pipeline.config.alpha == 0.5
        assert pipeline.config.glasso_alpha == 0.02
        assert pipeline.config.min_labelpick_queries == 5
        assert pipeline.framework.labelpick.glasso_alpha == 0.02
        assert pipeline.framework.labelpick.min_queries == 5

    def test_config_overrides_compose_with_each_other(self, tiny_text_split):
        from repro.core import ActiveDPConfig
        overrides = {"sampler": "passive", "glasso_alpha": 0.02}
        pipeline = ActiveDPPipeline(
            tiny_text_split, random_state=0, config_overrides=overrides
        )
        assert pipeline.framework.sampler.name == "passive"
        assert pipeline.config.glasso_alpha == 0.02
        # Neither the caller's dict nor the per-kind defaults are mutated.
        assert overrides == {"sampler": "passive", "glasso_alpha": 0.02}
        assert ActiveDPConfig.for_dataset_kind("text").glasso_alpha == 0.01

    def test_accumulates_labels_over_iterations(self, tiny_text_split):
        pipeline = ActiveDPPipeline(tiny_text_split, random_state=0)
        pipeline.run(4)
        early = len(pipeline.generate_labels()[0])
        pipeline.run(12)
        late = len(pipeline.generate_labels()[0])
        assert late >= early


class TestUncertaintySamplingPipeline:
    def test_labels_are_ground_truth(self, tiny_text_split):
        pipeline = UncertaintySamplingPipeline(tiny_text_split, random_state=0)
        pipeline.run(10)
        indices, labels = pipeline.generate_labels()
        np.testing.assert_array_equal(labels, tiny_text_split.train.labels[indices])

    def test_one_label_per_iteration(self, tiny_text_split):
        pipeline = UncertaintySamplingPipeline(tiny_text_split, random_state=0)
        pipeline.run(7)
        indices, _ = pipeline.generate_labels()
        assert len(indices) == 7
        assert len(np.unique(indices)) == 7


class TestNemoPipeline:
    def test_collects_lfs_and_covers_instances(self, tiny_text_split):
        pipeline = NemoPipeline(tiny_text_split, random_state=0)
        pipeline.run(10)
        assert len(pipeline.lfs) > 0
        indices, _ = pipeline.generate_labels()
        assert len(indices) > 0

    def test_no_duplicate_lfs(self, tiny_text_split):
        pipeline = NemoPipeline(tiny_text_split, random_state=0)
        pipeline.run(12)
        assert len(pipeline.lfs) == len(set(pipeline.lfs))


class TestIWSPipeline:
    def test_accepted_lfs_pass_user_verification(self, tiny_text_split):
        pipeline = IWSPipeline(tiny_text_split, random_state=0)
        pipeline.run(12)
        for lf in pipeline.lfs:
            assert pipeline.user.verify_lf(lf)

    def test_proposals_are_not_repeated(self, tiny_text_split):
        pipeline = IWSPipeline(tiny_text_split, random_state=0)
        pipeline.run(15)
        assert len(pipeline.proposed) == len(set(pipeline.proposed))

    def test_works_on_tabular_data(self, tiny_tabular_split):
        pipeline = IWSPipeline(tiny_tabular_split, random_state=0)
        pipeline.run(8)
        assert 0.0 <= pipeline.evaluate(1.0).test_accuracy <= 1.0


class TestRevisingLFPipeline:
    def test_revised_instances_keep_oracle_labels(self, tiny_text_split):
        pipeline = RevisingLFPipeline(tiny_text_split, random_state=0)
        pipeline.run(10)
        indices, labels = pipeline.generate_labels()
        label_map = dict(zip(indices.tolist(), labels.tolist()))
        for revised_index, revised_label in pipeline.revised.items():
            assert label_map[revised_index] == revised_label
            assert revised_label == tiny_text_split.train.labels[revised_index]

    def test_lf_outputs_corrected_on_revised_instances(self, tiny_text_split):
        pipeline = RevisingLFPipeline(tiny_text_split, random_state=0)
        pipeline.run(10)
        matrix = pipeline.fit_matrix()
        # Revision rewrites fired votes only; abstains stay abstains.
        np.testing.assert_array_equal(
            matrix != ABSTAIN, pipeline.train_matrix.matrix != ABSTAIN
        )
        for index, label in pipeline.revised.items():
            fired = matrix[index] != ABSTAIN
            assert np.all(matrix[index, fired] == label)


@pytest.mark.parametrize(
    "name, split",
    [
        ("nemo", "tiny_text_split"),
        ("iws", "tiny_text_split"),
        ("revising_lf", "tiny_text_split"),
        ("iws", "tiny_tabular_split"),
        ("revising_lf", "tiny_tabular_split"),
    ],
)
def test_generate_labels_matches_independent_recomputation(name, split, request):
    """The label-model baselines' labels are MeTaL's argmax over their own LFs.

    Recomputed from scratch: apply every LF, overwrite fired votes on
    revised rows with the oracle label (Revising LF), fit a fresh MeTaL and
    take its argmax over the covered rows, revised rows pinned.
    """
    data_split = request.getfixturevalue(split)
    pipeline = get_pipeline(name, data_split, random_state=0)
    pipeline.run(10)
    assert pipeline.lfs
    matrix = np.column_stack([lf.apply(data_split.train) for lf in pipeline.lfs])
    revised = getattr(pipeline, "revised", {})
    for index, label in revised.items():
        matrix[index, matrix[index] != ABSTAIN] = label
    covered = np.flatnonzero(np.any(matrix != ABSTAIN, axis=1))
    model = MeTaLLabelModel(n_classes=data_split.n_classes).fit(matrix)
    expected = dict(zip(covered.tolist(), model.predict(matrix[covered]).tolist()))
    expected.update(revised)

    indices, labels = pipeline.generate_labels()
    assert indices.tolist() == sorted(expected)
    assert labels.tolist() == [expected[i] for i in sorted(expected)]
