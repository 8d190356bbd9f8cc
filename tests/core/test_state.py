"""Tests for TrainingState: snapshot/resume, dirty-flag refits, pseudo-label fix."""

import numpy as np
import pytest

from repro.core import ActiveDP, ActiveDPConfig
from repro.labeling import ABSTAIN, KeywordLF
from repro.labeling.lf import LambdaLF
from repro.simulation import SimulatedUser


@pytest.fixture()
def framework(tiny_text_split):
    config = ActiveDPConfig.for_dataset_kind("text", min_labelpick_queries=5)
    return ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)


@pytest.fixture()
def user(tiny_text_split):
    return SimulatedUser(tiny_text_split.train, random_state=0)


def _fingerprint(framework):
    return (
        list(framework.queried),
        [lf.name for lf in framework.lfs],
        framework.pseudo.labels.tolist(),
        framework.selection.selected_indices,
        framework.threshold,
    )


class TestSnapshotResume:
    def test_restore_replays_identically(self, framework, user, tiny_text_split):
        framework.run(user, 5)
        snapshot = framework.snapshot()
        framework.run(user, 5)
        first = _fingerprint(framework)

        framework.restore(snapshot)
        resumed_user = SimulatedUser(tiny_text_split.train, random_state=0)
        # Replay the user's RNG to the snapshot point: the user is external
        # to the framework, so its stream is the caller's responsibility.
        for index in framework.queried:
            resumed_user.design_lf(index)
        framework.run(resumed_user, 5)
        assert _fingerprint(framework) == first

    def test_snapshot_is_isolated_from_further_steps(self, framework, user):
        framework.run(user, 4)
        snapshot = framework.snapshot()
        n_lfs = len(snapshot.lfs)
        n_queried = len(snapshot.queried)
        framework.run(user, 4)
        assert len(snapshot.lfs) == n_lfs
        assert len(snapshot.queried) == n_queried

    def test_restore_defends_against_caller_mutation(self, framework, user):
        framework.run(user, 3)
        snapshot = framework.snapshot()
        framework.restore(snapshot)
        snapshot.queried.append(-123)
        assert -123 not in framework.queried


class TestDirtyFlagRefit:
    def test_flags_clear_after_refit(self, framework, user):
        framework.step(user)
        assert not framework.state.lfs_dirty
        assert not framework.state.pseudo_dirty

    def test_incremental_refit_matches_forced_refit(self, framework, user):
        """Skipped stages hold exactly the values a full recompute produces."""
        framework.run(user, 12)
        state = framework.state
        before = (
            None if state.lm_proba_train is None else state.lm_proba_train.copy(),
            None if state.al_proba_train is None else state.al_proba_train.copy(),
            framework.threshold,
            list(framework.selection.selected_indices),
        )
        framework.refit(force=True)
        after = (
            state.lm_proba_train,
            state.al_proba_train,
            framework.threshold,
            list(framework.selection.selected_indices),
        )
        assert before[3] == after[3]
        assert before[2] == after[2]
        for cached, recomputed in zip(before[:2], after[:2]):
            if cached is None:
                assert recomputed is None
            else:
                np.testing.assert_array_equal(cached, recomputed)

    def test_noop_refit_skips_model_fits(self, framework, user):
        framework.run(user, 6)

        class Exploder:
            def __getattr__(self, name):
                raise AssertionError("label model must not be refit without new inputs")

        framework.state.label_model = Exploder()
        lm_before = framework.state.lm_proba_train
        framework.refit()  # nothing dirty: every stage must be skipped
        assert framework.state.lm_proba_train is lm_before


class TestPseudoLabelPropagation:
    def _scripted_framework(self, tiny_text_split, queries):
        config = ActiveDPConfig.for_dataset_kind("text", min_labelpick_queries=5)
        framework = ActiveDP(
            tiny_text_split.train, tiny_text_split.valid, config, random_state=0
        )
        iterator = iter(queries)
        framework.select_query = lambda: next(iterator)
        return framework

    class _FixedLFUser:
        def __init__(self, lf):
            self.lf = lf

        def design_lf(self, query_index):
            return self.lf

    def test_duplicate_lf_reports_its_own_output(self, tiny_text_split):
        lf = KeywordLF("good", 0)
        outputs = lf.apply(tiny_text_split.train)
        fires = int(np.flatnonzero(outputs != ABSTAIN)[0])
        abstains = int(np.flatnonzero(outputs == ABSTAIN)[0])
        framework = self._scripted_framework(tiny_text_split, [fires, abstains])
        user = self._FixedLFUser(lf)

        first = framework.step(user)
        assert first.pseudo_label == int(outputs[fires])

        # Same LF again on an instance it abstains on: the record must say
        # ABSTAIN, not echo the previous iteration's pseudo-label.
        second = framework.step(user)
        assert second.pseudo_label == ABSTAIN

    def test_new_lf_abstaining_on_its_query_reports_abstain(self, tiny_text_split):
        lf = KeywordLF("good", 0)
        silent = LambdaLF(lambda instance: ABSTAIN, name="silent")
        outputs = lf.apply(tiny_text_split.train)
        fires = int(np.flatnonzero(outputs != ABSTAIN)[0])
        framework = self._scripted_framework(tiny_text_split, [fires, fires + 1])

        first = framework.step(self._FixedLFUser(lf))
        assert first.pseudo_label == int(outputs[fires])

        # A brand-new LF that abstains on its own query instance: the old
        # code read pseudo.labels[-1] and reported the stale label above.
        second = framework.step(self._FixedLFUser(silent))
        assert second.pseudo_label == ABSTAIN
