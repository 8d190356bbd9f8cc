"""Tests for the experiment engine: parallel/serial equivalence, caching, grids."""

import pickle

import pytest

from repro.experiments import EvaluationProtocol, run_framework_on_dataset
from repro.runner import (
    ExecutionConfig,
    GridJob,
    TrialSpec,
    expand_jobs,
    last_report,
    run_experiment_grid,
    run_specs,
)

FAST = EvaluationProtocol(n_iterations=3, eval_every=3, n_seeds=2, dataset_scale=0.15)


def _grid_jobs():
    # 2 frameworks x 2 seeds (seeds come from the protocol).
    return [
        GridJob(key="uncertainty", framework="uncertainty", dataset="youtube"),
        GridJob(key="nemo", framework="nemo", dataset="youtube"),
    ]


class TestExpansion:
    def test_one_spec_per_job_and_seed(self):
        expanded = expand_jobs(_grid_jobs(), FAST)
        assert len(expanded) == 4
        seeds = {spec.seed for _, spec in expanded}
        assert len(seeds) == 2
        assert all(spec.group == job.key for job, spec in expanded)

    def test_duplicate_job_keys_rejected(self):
        jobs = [
            GridJob(key="same", framework="uncertainty", dataset="youtube"),
            GridJob(key="same", framework="nemo", dataset="youtube"),
        ]
        with pytest.raises(ValueError):
            run_experiment_grid(jobs, FAST)


class TestParallelSerialEquivalence:
    def test_two_framework_two_seed_grid(self):
        """Worker-pool execution is byte-identical to the serial path."""
        serial = run_experiment_grid(_grid_jobs(), FAST, ExecutionConfig(workers=1))
        parallel = run_experiment_grid(_grid_jobs(), FAST, ExecutionConfig(workers=2))
        assert set(serial) == set(parallel) == {"uncertainty", "nemo"}
        for key in serial:
            assert serial[key].average_accuracy == parallel[key].average_accuracy
            assert serial[key].final_accuracy == parallel[key].final_accuracy
            assert serial[key].curve == parallel[key].curve
            # Byte-identical per history (pickling the list at once would
            # also compare incidental cross-history object sharing).
            for ours, theirs in zip(serial[key].histories, parallel[key].histories):
                assert pickle.dumps(ours) == pickle.dumps(theirs)


class TestCaching:
    def test_warm_rerun_executes_zero_trials(self, tmp_path):
        execution = ExecutionConfig(workers=1, cache_dir=tmp_path)
        cold = run_experiment_grid(_grid_jobs(), FAST, execution)
        report = last_report()
        assert report.n_executed == 4 and report.n_cached == 0

        warm = run_experiment_grid(_grid_jobs(), FAST, execution)
        report = last_report()
        assert report.n_executed == 0 and report.n_cached == 4
        for key in cold:
            assert warm[key].average_accuracy == cold[key].average_accuracy
            for ours, theirs in zip(cold[key].histories, warm[key].histories):
                assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_no_cache_flag_disables_cache(self, tmp_path):
        execution = ExecutionConfig(cache_dir=None)
        run_experiment_grid(_grid_jobs()[:1], FAST, execution)
        assert last_report().n_cached == 0
        run_experiment_grid(_grid_jobs()[:1], FAST, execution)
        assert last_report().n_cached == 0

    def test_completed_trials_persist_when_a_later_trial_fails(self, tmp_path):
        """Interrupted grid runs keep everything finished so far."""
        from repro.runner import ResultCache

        good, bad = [spec for _, spec in expand_jobs(_grid_jobs(), FAST)][:2]
        bad = TrialSpec(
            framework="uncertainty",
            dataset="no-such-dataset",
            seed=bad.seed,
            protocol=FAST,
        )
        with pytest.raises(Exception):
            run_specs([good, bad], ExecutionConfig(workers=1, cache_dir=tmp_path))
        assert good in ResultCache(tmp_path)
        # The report describes the interrupted run, not the previous one.
        report = last_report()
        assert report.n_trials == 2 and report.n_executed == 1

    def test_cache_outcomes_marked(self, tmp_path):
        execution = ExecutionConfig(cache_dir=tmp_path)
        specs = [spec for _, spec in expand_jobs(_grid_jobs()[:1], FAST)]
        cold = run_specs(specs, execution)
        warm = run_specs(specs, execution)
        assert [o.from_cache for o in cold] == [False, False]
        assert [o.from_cache for o in warm] == [True, True]
        assert all(o.spec.key == c.spec.key for o, c in zip(warm, cold))


class TestDeduplication:
    def test_same_content_key_executes_once(self, tmp_path):
        """Two jobs expanding to identical trials share one execution."""
        jobs = [
            GridJob(key="first", framework="uncertainty", dataset="youtube"),
            GridJob(key="second", framework="uncertainty", dataset="youtube"),
        ]
        results = run_experiment_grid(jobs, FAST, ExecutionConfig(cache_dir=tmp_path))
        report = last_report()
        assert report.n_trials == 2 * FAST.n_seeds
        assert report.n_executed == FAST.n_seeds
        assert report.n_deduplicated == FAST.n_seeds
        assert report.n_cached == 0
        assert (
            report.n_executed + report.n_cached + report.n_deduplicated
            == report.n_trials
        )
        # Both cells received the full per-seed histories with equal content.
        assert results["first"].average_accuracy == results["second"].average_accuracy
        for ours, theirs in zip(
            results["first"].histories, results["second"].histories
        ):
            assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_fanned_out_histories_do_not_share_objects(self):
        specs = [spec for _, spec in expand_jobs(_grid_jobs()[:1], FAST)]
        duplicated = specs + specs
        outcomes = run_specs(duplicated, ExecutionConfig())
        assert last_report().n_deduplicated == len(specs)
        for position, twin in enumerate(specs):
            original = outcomes[position].history
            copy = outcomes[position + len(specs)].history
            assert original is not copy
            assert pickle.dumps(original) == pickle.dumps(copy)
        # Per-outcome flags agree with the report: the first occurrence
        # executed, its twin was deduplication-served.
        assert [o.deduplicated for o in outcomes] == [False] * len(specs) + [True] * len(specs)
        assert sum(not o.from_cache and not o.deduplicated for o in outcomes) == (
            last_report().n_executed
        )

    def test_deduplicated_run_matches_unduplicated(self):
        specs = [spec for _, spec in expand_jobs(_grid_jobs(), FAST)]
        plain = run_specs(specs, ExecutionConfig())
        doubled = run_specs(specs + specs, ExecutionConfig())
        for outcome, twin in zip(plain, doubled[: len(specs)]):
            assert pickle.dumps(outcome.history) == pickle.dumps(twin.history)

    def test_cache_hits_are_not_counted_as_duplicates(self, tmp_path):
        specs = [spec for _, spec in expand_jobs(_grid_jobs()[:1], FAST)]
        execution = ExecutionConfig(cache_dir=tmp_path)
        run_specs(specs, execution)
        run_specs(specs + specs, execution)
        report = last_report()
        assert report.n_cached == 2 * len(specs)
        assert report.n_deduplicated == 0 and report.n_executed == 0


class TestProtocolIntegration:
    def test_run_framework_on_dataset_uses_engine(self, tmp_path):
        execution = ExecutionConfig(cache_dir=tmp_path)
        result = run_framework_on_dataset("uncertainty", "youtube", FAST, execution=execution)
        assert result.framework == "uncertainty"
        assert len(result.histories) == FAST.n_seeds
        rerun = run_framework_on_dataset("uncertainty", "youtube", FAST, execution=execution)
        assert last_report().n_executed == 0
        assert rerun.average_accuracy == result.average_accuracy

    def test_histories_carry_real_iteration_records(self):
        result = run_framework_on_dataset("activedp", "youtube", FAST)
        records = result.histories[0].records
        assert all(record.query_index >= 0 for record in records)
        assert any(record.lf_name is not None for record in records)
        assert [record.iteration for record in records] == [1, 2, 3]
