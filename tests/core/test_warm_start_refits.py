"""Tests for warm-started label-model refits wired through the framework."""

import numpy as np
import pytest

from repro.core import ActiveDP, ActiveDPConfig
from repro.label_models import get_label_model
from repro.simulation import SimulatedUser


def _framework(tiny_text_split, **overrides):
    config = ActiveDPConfig.for_dataset_kind(
        "text", min_labelpick_queries=5, **overrides
    )
    return ActiveDP(
        tiny_text_split.train, tiny_text_split.valid, config, random_state=0
    )


def _run(tiny_text_split, n_iterations, **overrides):
    framework = _framework(tiny_text_split, **overrides)
    user = SimulatedUser(tiny_text_split.train, random_state=0)
    framework.run(user, n_iterations)
    return framework


class TestWarmColdEquivalence:
    def test_headline_metrics_within_tol_and_fewer_em_iterations(self, tiny_text_split):
        cold = _run(tiny_text_split, 25, warm_start_label_model=False)
        warm = _run(tiny_text_split, 25, warm_start_label_model=True)

        assert warm.state.lm_em_iterations < cold.state.lm_em_iterations
        cold_quality = cold.label_quality()
        warm_quality = warm.label_quality()
        assert abs(warm_quality["accuracy"] - cold_quality["accuracy"]) <= 0.05
        assert abs(warm_quality["coverage"] - cold_quality["coverage"]) <= 0.05
        # The trajectory (queries, LFs) is driven by the same seeds; warm
        # starts change EM internals, not what gets queried or selected.
        assert warm.queried[:10] == cold.queried[:10]

    def test_warm_start_actually_triggers(self, tiny_text_split):
        warm = _run(tiny_text_split, 25, warm_start_label_model=True)
        assert warm.state.label_model is not None
        assert warm.state.lm_fit_selection == list(warm.selection.selected_indices)

    def test_cold_flag_reproduces_cold_start_fit_bitwise(self, tiny_text_split):
        """With the flag off every refit is a cold fit of the selected columns."""
        framework = _run(tiny_text_split, 20, warm_start_label_model=False)
        state = framework.state
        selected = list(state.selection.selected_indices)
        assert selected

        reference = get_label_model(
            framework.config.label_model,
            n_classes=framework.n_classes,
            early_stop=framework.config.adaptive_early_stop,
        )
        reference.fit(state.train_matrix.columns(selected))
        np.testing.assert_array_equal(
            state.lm_proba_train,
            reference.predict_proba(state.train_matrix.columns(selected)),
        )
        assert not getattr(state.label_model, "warm_started_", True)

    def test_forced_refit_with_unchanged_selection_keeps_probas(self, tiny_text_split):
        for warm in (False, True):
            framework = _run(tiny_text_split, 15, warm_start_label_model=warm)
            before = framework._lm_proba_train.copy()
            framework.refit(force=True)
            np.testing.assert_array_equal(framework._lm_proba_train, before)


class TestSnapshotRoundTrip:
    def test_snapshot_restores_carried_fit(self, tiny_text_split):
        framework = _run(tiny_text_split, 15, warm_start_label_model=True)
        snapshot = framework.snapshot()
        assert snapshot.lm_fit_selection == framework.state.lm_fit_selection
        assert snapshot.lm_em_iterations == framework.state.lm_em_iterations

        # Continue the original; the snapshot's carried fit must not move.
        user = SimulatedUser(tiny_text_split.train, random_state=1)
        fit_selection = list(snapshot.lm_fit_selection)
        em_iterations = snapshot.lm_em_iterations
        framework.run(user, 5)
        assert snapshot.lm_fit_selection == fit_selection
        assert snapshot.lm_em_iterations == em_iterations

    def test_restored_run_replays_identically_with_warm_start(self, tiny_text_split):
        framework = _framework(tiny_text_split, warm_start_label_model=True)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        framework.run(user, 10)
        # Drain a second user's RNG to the 10-step point for the replay below.
        replay_user = SimulatedUser(tiny_text_split.train, random_state=0)
        for index in framework.queried:
            replay_user.design_lf(index)

        snapshot = framework.snapshot()
        framework.run(user, 5)
        first = (
            list(framework.queried),
            framework.state.lm_fit_selection,
            framework.state.lm_em_iterations,
            framework.threshold,
        )

        framework.restore(snapshot)
        framework.run(replay_user, 5)
        second = (
            list(framework.queried),
            framework.state.lm_fit_selection,
            framework.state.lm_em_iterations,
            framework.threshold,
        )
        assert first == second

    def test_carried_model_is_deep_copied(self, tiny_text_split):
        framework = _run(tiny_text_split, 15, warm_start_label_model=True)
        snapshot = framework.snapshot()
        model = framework.state.label_model
        snapshot_model = snapshot.label_model
        assert model is not snapshot_model
        if hasattr(model, "accuracies_"):
            np.testing.assert_array_equal(model.accuracies_, snapshot_model.accuracies_)


class TestIntersectionMappedFrameworkWarmStarts:
    def test_post_first_lm_refits_are_nearly_all_warm(self, tiny_text_split):
        """LabelPick churn no longer forces cold starts: any overlap warms.

        Only the first fit and fits on a fully *disjoint* selection (possible
        in the first couple of iterations, when the selection is a single LF
        that gets swapped) may stay cold — under the superset-only rule about
        half of the early refits were.
        """
        framework = _run(tiny_text_split, 30, warm_start_label_model=True)
        state = framework.state
        assert state.lm_fits > 1
        warm_rate = state.lm_warm_fits / (state.lm_fits - 1)
        assert warm_rate >= 0.9

    def test_cold_flag_never_warm_starts(self, tiny_text_split):
        framework = _run(tiny_text_split, 30, warm_start_label_model=False)
        assert framework.state.lm_fits > 1
        assert framework.state.lm_warm_fits == 0


class TestAllKnobsEquivalence:
    """All three warm-start knobs on vs off on the same seeded run."""

    ALL_ON = dict(
        warm_start_label_model=True,
        warm_start_labelpick=True,
        warm_start_al_model=True,
    )
    ALL_OFF = dict(
        warm_start_label_model=False,
        warm_start_labelpick=False,
        warm_start_al_model=False,
    )

    def test_end_label_quality_within_tol_and_all_paths_warm(self, tiny_text_split):
        warm = _run(tiny_text_split, 30, **self.ALL_ON)
        cold = _run(tiny_text_split, 30, **self.ALL_OFF)

        warm_quality = warm.label_quality()
        cold_quality = cold.label_quality()
        # Warm starts change optimisation trajectories (EM/L-BFGS paths,
        # glasso iterates within solver tolerance), not the models — the
        # aggregated label quality must agree tightly.
        assert abs(warm_quality["accuracy"] - cold_quality["accuracy"]) <= 0.05
        assert abs(warm_quality["coverage"] - cold_quality["coverage"]) <= 0.05

        state = warm.state
        # Post-first fits warm except on fully disjoint selections (rare and
        # legitimate — there is nothing to carry over).
        assert state.lm_warm_fits / (state.lm_fits - 1) >= 0.9
        assert state.al_warm_fits >= state.al_fits - 1
        assert state.labelpick.n_fits > 1
        # Post-first glasso fits warm except when the positive-definiteness
        # guard falls back to a cold seed (rare and by design).
        assert state.labelpick.n_warm_fits / (state.labelpick.n_fits - 1) >= 0.9
        assert state.lm_em_iterations < cold.state.lm_em_iterations

    def test_all_off_reproduces_historical_state(self, tiny_text_split):
        """Knobs off: no warm machinery runs and no carried state is built."""
        cold = _run(tiny_text_split, 25, **self.ALL_OFF)
        state = cold.state
        assert state.lm_warm_fits == 0
        assert state.al_warm_fits == 0
        assert state.labelpick.n_fits == 0
        assert state.labelpick.covariance is None
        assert state.labelpick.glasso_result is None
        assert not getattr(state.al_model, "warm_started_", False)

    def test_all_off_runs_are_deterministically_identical(self, tiny_text_split):
        first = _run(tiny_text_split, 20, **self.ALL_OFF)
        second = _run(tiny_text_split, 20, **self.ALL_OFF)
        assert first.queried == second.queried
        assert (
            first.selection.selected_indices == second.selection.selected_indices
        )
        np.testing.assert_array_equal(first._lm_proba_train, second._lm_proba_train)
        np.testing.assert_array_equal(first._al_proba_train, second._al_proba_train)

    def test_labelpick_state_survives_snapshot_round_trip(self, tiny_text_split):
        framework = _run(tiny_text_split, 20, **self.ALL_ON)
        snapshot = framework.snapshot()
        assert snapshot.labelpick is not framework.state.labelpick
        assert snapshot.labelpick.n_fits == framework.state.labelpick.n_fits
        before = framework.state.labelpick.n_fits
        user = SimulatedUser(tiny_text_split.train, random_state=1)
        framework.run(user, 5)
        # The snapshot's carried structure-learning state must not move.
        assert snapshot.labelpick.n_fits == before


class TestWarmFitCounters:
    def test_records_carry_cumulative_counters(self, tiny_text_split):
        framework = _framework(tiny_text_split)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        records = framework.run(user, 15)
        for family in ("lm", "al", "glasso"):
            counters = [getattr(r, f"{family}_fits") for r in records]
            warm = [getattr(r, f"{family}_warm_fits") for r in records]
            assert all(c is not None for c in counters)
            assert counters == sorted(counters)
            assert all(w <= c for w, c in zip(warm, counters))
        assert records[-1].lm_fits == framework.state.lm_fits
        assert records[-1].glasso_fits == framework.state.labelpick.n_fits


class TestEmIterationAccounting:
    def test_records_carry_cumulative_em_iterations(self, tiny_text_split):
        framework = _framework(tiny_text_split, warm_start_label_model=True)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        records = framework.run(user, 10)
        counters = [r.lm_em_iterations for r in records]
        assert all(c is not None for c in counters)
        assert counters == sorted(counters)
        assert counters[-1] == framework.state.lm_em_iterations
        assert counters[-1] > 0
