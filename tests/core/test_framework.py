"""Tests for the ActiveDP framework orchestration."""

import numpy as np
import pytest

from repro.core import ActiveDP, ActiveDPConfig
from repro.labeling import ABSTAIN, KeywordLF
from repro.simulation import SimulatedUser


@pytest.fixture()
def framework(tiny_text_split):
    config = ActiveDPConfig.for_dataset_kind("text", min_labelpick_queries=5)
    return ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)


@pytest.fixture()
def user(tiny_text_split):
    return SimulatedUser(tiny_text_split.train, random_state=0)


class TestTrainingLoop:
    def test_step_returns_iteration_record(self, framework, user):
        record = framework.step(user)
        assert record.iteration == 0
        assert 0 <= record.query_index < len(framework.train)
        assert framework.iteration == 1

    def test_lfs_accumulate_and_matrices_grow(self, framework, user):
        framework.run(user, 8)
        assert len(framework.lfs) > 0
        state = framework.state
        assert state.train_matrix.matrix.shape == (len(framework.train), len(framework.lfs))
        assert state.valid_matrix.matrix.shape == (len(framework.valid), len(framework.lfs))

    def test_queried_instances_are_unique(self, framework, user):
        framework.run(user, 15)
        assert len(framework.queried) == len(set(framework.queried))

    def test_pseudo_labels_match_query_instances(self, framework, user, tiny_text_split):
        framework.run(user, 10)
        pseudo = framework.pseudo
        assert len(pseudo) > 0
        # With the noise-free simulated user every pseudo-label is correct.
        assert pseudo.accuracy(tiny_text_split.train) == 1.0

    def test_run_rejects_nonpositive_iterations(self, framework, user):
        with pytest.raises(ValueError):
            framework.run(user, 0)

    def test_add_lf_manually(self, framework):
        framework.add_lf(KeywordLF("good", 0))
        assert len(framework.lfs) == 1
        assert framework.state.train_matrix.matrix.shape[1] == 1

    def test_exhausted_pool_raises(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text")
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        framework.state.queried = list(range(len(tiny_text_split.train)))
        with pytest.raises(RuntimeError):
            framework.select_query()


class TestInference:
    def test_aggregate_before_any_iteration_rejects_everything(self, framework):
        aggregated = framework.aggregate_labels()
        assert aggregated.coverage == 0.0
        assert np.all(aggregated.labels == ABSTAIN)

    def test_aggregated_labels_cover_training_pool(self, framework, user):
        framework.run(user, 20)
        aggregated = framework.aggregate_labels()
        assert aggregated.coverage > 0.3
        accepted = aggregated.accepted
        assert np.all(aggregated.labels[accepted] >= 0)
        np.testing.assert_allclose(aggregated.proba.sum(axis=1), 1.0, atol=1e-8)

    def test_generate_labels_consistent_with_aggregate(self, framework, user):
        framework.run(user, 15)
        indices, hard, soft = framework.generate_labels()
        aggregated = framework.aggregate_labels()
        np.testing.assert_array_equal(indices, np.flatnonzero(aggregated.accepted))
        np.testing.assert_array_equal(hard, aggregated.labels[indices])
        assert soft.shape == (len(indices), framework.n_classes)

    def test_end_model_beats_chance(self, framework, user, tiny_text_split):
        framework.run(user, 25)
        accuracy = framework.evaluate_end_model(tiny_text_split.test)
        assert accuracy > 0.6

    def test_label_quality_reports_coverage_and_accuracy(self, framework, user):
        framework.run(user, 20)
        quality = framework.label_quality()
        assert 0.0 <= quality["coverage"] <= 1.0
        assert 0.0 <= quality["accuracy"] <= 1.0

    def test_selected_lfs_is_subset_of_all_lfs(self, framework, user):
        framework.run(user, 20)
        assert set(framework.selected_lfs) <= set(framework.lfs)


class TestAblationSwitches:
    def test_without_confusion_labels_come_from_label_model_only(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text", use_confusion=False)
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        framework.run(user, 15)
        aggregated = framework.aggregate_labels()
        assert set(aggregated.source) <= {"lm", "rejected"}
        assert framework.threshold is None

    def test_without_labelpick_all_lfs_are_selected(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text", use_labelpick=False)
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        framework.run(user, 12)
        assert framework.selection.selected_indices == list(range(len(framework.lfs)))

    def test_custom_sampler_name(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text", sampler="passive")
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        assert framework.sampler.name == "passive"


class TestStaleStateEvaluation:
    """An LF added without a refit leaves stale models; evaluation flushes them."""

    @staticmethod
    def _run(tiny_text_split, n_iterations, add_stale_lf=True):
        """Run *n_iterations* steps, then (optionally) add one LF and no refit."""
        config = ActiveDPConfig.for_dataset_kind("text", min_labelpick_queries=5)
        framework = ActiveDP(
            tiny_text_split.train, tiny_text_split.valid, config, random_state=0
        )
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        framework.run(user, n_iterations)
        if add_stale_lf:
            candidates = [KeywordLF(word, label) for word, label in (
                ("great", 0), ("awful", 1), ("good", 0), ("bad", 1),
            )]
            framework.add_lf(next(lf for lf in candidates if lf not in framework.lfs))
        return framework

    def test_eval_at_non_boundary_iteration_flushes_dirty_state(self, tiny_text_split):
        # The LF added after the last step has not been seen by any model.
        framework = self._run(tiny_text_split, 8)
        assert framework.state.lfs_dirty

        framework.aggregate_labels()
        assert not framework.state.lfs_dirty
        assert not framework.state.pseudo_dirty

    def test_flushed_aggregation_matches_explicit_refit(self, tiny_text_split):
        """Aggregating stale state equals refitting first — the regression pin."""
        framework = self._run(tiny_text_split, 8)
        assert framework.state.lfs_dirty

        twin = ActiveDP(
            tiny_text_split.train,
            tiny_text_split.valid,
            framework.config,
            random_state=0,
        )
        twin.restore(framework.snapshot())
        twin.refit()
        reference = twin.aggregate_labels()

        aggregated = framework.aggregate_labels()
        np.testing.assert_array_equal(aggregated.labels, reference.labels)
        np.testing.assert_array_equal(aggregated.accepted, reference.accepted)
        np.testing.assert_array_equal(aggregated.proba, reference.proba)
        assert aggregated.threshold == reference.threshold

    def test_label_quality_and_end_model_see_all_lfs(self, tiny_text_split):
        framework = self._run(tiny_text_split, 8)
        n_lfs = len(framework.lfs)
        framework.label_quality()
        # The flushed selection was computed over the full LF set.
        assert not framework.state.lfs_dirty
        assert len(framework.state.lfs) == n_lfs
        accuracy = framework.evaluate_end_model(tiny_text_split.test)
        assert 0.0 <= accuracy <= 1.0

    def test_per_step_refits_leave_nothing_to_flush(self, tiny_text_split):
        """Every step refits, so the flush is a no-op: no extra fits happen."""
        framework = self._run(tiny_text_split, 8, add_stale_lf=False)
        assert not framework.state.lfs_dirty
        assert not framework.state.pseudo_dirty
        fits_before = (
            framework.state.lm_fits,
            framework.state.al_fits,
            framework.state.labelpick.n_fits,
        )
        proba_before = framework.state.lm_proba_train.copy()
        framework.aggregate_labels()
        assert (
            framework.state.lm_fits,
            framework.state.al_fits,
            framework.state.labelpick.n_fits,
        ) == fits_before
        np.testing.assert_array_equal(framework.state.lm_proba_train, proba_before)


class TestTabularFramework:
    def test_runs_on_tabular_data(self, tiny_tabular_split):
        config = ActiveDPConfig.for_dataset_kind("tabular")
        framework = ActiveDP(tiny_tabular_split.train, tiny_tabular_split.valid, config, random_state=0)
        user = SimulatedUser(tiny_tabular_split.train, random_state=0)
        framework.run(user, 15)
        quality = framework.label_quality()
        assert quality["coverage"] > 0.2
        assert quality["accuracy"] > 0.6
