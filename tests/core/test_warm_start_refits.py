"""Tests for the warm-started refits wired through the framework.

Warm runs are compared with ``reference_cold.ColdActiveDP``: the same
framework with every refit cold-started.
"""

import numpy as np
from reference_cold import ColdActiveDP

from repro.core import ActiveDP, ActiveDPConfig
from repro.simulation import SimulatedUser


def _framework(tiny_text_split, cold=False):
    config = ActiveDPConfig.for_dataset_kind("text", min_labelpick_queries=5)
    framework_class = ColdActiveDP if cold else ActiveDP
    return framework_class(
        tiny_text_split.train, tiny_text_split.valid, config, random_state=0
    )


def _run(tiny_text_split, n_iterations, cold=False):
    framework = _framework(tiny_text_split, cold=cold)
    user = SimulatedUser(tiny_text_split.train, random_state=0)
    framework.run(user, n_iterations)
    return framework


class TestWarmColdEquivalence:
    def test_headline_metrics_within_tol_and_fewer_em_iterations(self, tiny_text_split):
        cold = _run(tiny_text_split, 25, cold=True)
        warm = _run(tiny_text_split, 25)

        assert warm.state.lm_em_iterations < cold.state.lm_em_iterations
        cold_quality = cold.label_quality()
        warm_quality = warm.label_quality()
        assert abs(warm_quality["accuracy"] - cold_quality["accuracy"]) <= 0.05
        assert abs(warm_quality["coverage"] - cold_quality["coverage"]) <= 0.05
        # The trajectory (queries, LFs) is driven by the same seeds; warm
        # starts change EM internals, not what gets queried or selected.
        assert warm.queried[:10] == cold.queried[:10]

    def test_warm_start_actually_triggers(self, tiny_text_split):
        warm = _run(tiny_text_split, 25)
        assert warm.state.label_model is not None
        assert warm.state.lm_fit_selection == list(warm.selection.selected_indices)

    def test_forced_refit_with_unchanged_selection_keeps_probas(self, tiny_text_split):
        for cold in (True, False):
            framework = _run(tiny_text_split, 15, cold=cold)
            before = framework.state.lm_proba_train.copy()
            framework.refit(force=True)
            np.testing.assert_array_equal(framework.state.lm_proba_train, before)


class TestSnapshotRoundTrip:
    def test_snapshot_restores_carried_fit(self, tiny_text_split):
        framework = _run(tiny_text_split, 15)
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
        framework = _framework(tiny_text_split)
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
        framework = _run(tiny_text_split, 15)
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
        framework = _run(tiny_text_split, 30)
        state = framework.state
        assert state.lm_fits > 1
        warm_rate = state.lm_warm_fits / (state.lm_fits - 1)
        assert warm_rate >= 0.9


class TestAllKnobsEquivalence:
    """All three warm starts against the cold reference on the same seeded run."""

    def test_end_label_quality_within_tol_and_all_paths_warm(self, tiny_text_split):
        warm = _run(tiny_text_split, 30)
        cold = _run(tiny_text_split, 30, cold=True)

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

    def test_the_reference_never_warm_starts(self, tiny_text_split):
        """The oracle is cold: no warm fit and no carried structure state."""
        state = _run(tiny_text_split, 30, cold=True).state
        assert state.lm_fits > 1 and state.al_fits > 1
        assert state.lm_warm_fits == 0
        assert state.al_warm_fits == 0
        assert state.labelpick.n_fits == 0
        assert state.labelpick.glasso_result is None

    def test_labelpick_state_survives_snapshot_round_trip(self, tiny_text_split):
        framework = _run(tiny_text_split, 20)
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
        framework = _framework(tiny_text_split)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        records = framework.run(user, 10)
        counters = [r.lm_em_iterations for r in records]
        assert all(c is not None for c in counters)
        assert counters == sorted(counters)
        assert counters[-1] == framework.state.lm_em_iterations
        assert counters[-1] > 0
