"""Tests for the per-table/figure experiment runners and reporting."""

import pytest

from repro.experiments import (
    EvaluationProtocol,
    Figure3Result,
    format_curve_series,
    format_result_table,
    render_markdown_table,
    run_figure3,
    run_table3_ablation,
    run_table4_samplers,
    run_table5_label_noise,
    table2_dataset_statistics,
)
import repro.experiments.figure3 as figure3_module
import repro.experiments.noise as noise_module
from repro.experiments.ablation import ABLATION_VARIANTS
from repro.experiments.samplers import TABLE4_SAMPLERS
from repro.runner.engine import expand_jobs

FAST = EvaluationProtocol(n_iterations=3, eval_every=3, n_seeds=1, dataset_scale=0.15)


class TestTable2:
    def test_all_datasets_reported(self):
        rows = table2_dataset_statistics(scale=0.15)
        assert len(rows) == 8
        names = {row["name"] for row in rows}
        assert "youtube" in names and "census" in names
        for row in rows:
            assert row["n_train"] > row["n_valid"]
            assert row["paper_train"] > 0

    def test_subset_of_datasets(self):
        rows = table2_dataset_statistics(scale=0.15, names=["youtube"])
        assert len(rows) == 1


class TestFigure3:
    def test_runs_selected_frameworks_and_datasets(self):
        outcome = run_figure3(FAST, datasets=["youtube"], frameworks=["uncertainty", "nemo"])
        assert isinstance(outcome, Figure3Result)
        assert set(outcome.results["youtube"]) == {"uncertainty", "nemo"}
        assert outcome.average_accuracy("uncertainty") >= 0.0

    def test_nemo_skipped_on_tabular(self):
        outcome = run_figure3(FAST, datasets=["occupancy"], frameworks=["uncertainty", "nemo"])
        assert "nemo" not in outcome.results["occupancy"]
        assert "uncertainty" in outcome.results["occupancy"]

    def test_improvement_over_baseline(self):
        outcome = run_figure3(FAST, datasets=["youtube"], frameworks=["activedp", "iws"])
        delta = outcome.improvement_over("iws", "activedp")
        assert isinstance(delta, float)


class TestTableRunners:
    def test_ablation_variants_structure(self):
        results = run_table3_ablation(FAST, datasets=["youtube"], variants=["Baseline", "ActiveDP"])
        assert set(results) == {"Baseline", "ActiveDP"}
        assert "youtube" in results["ActiveDP"]
        assert set(ABLATION_VARIANTS) == {"Baseline", "LabelPick", "ConFusion", "ActiveDP"}

    def test_sampler_study_structure(self):
        results = run_table4_samplers(FAST, datasets=["youtube"], samplers=["Passive", "ADP"])
        assert set(results) == {"Passive", "ADP"}
        assert set(TABLE4_SAMPLERS) == {"Passive", "US", "LAL", "SEU", "ADP"}

    def test_noise_study_structure(self):
        results = run_table5_label_noise(FAST, datasets=["youtube"], noise_rates=(0.0, 0.15))
        assert set(results) == {0.0, 0.15}
        assert "youtube" in results[0.0]


class TestOneKeyPerTrial:
    """Grid rows that run the same trial share one content key."""

    @staticmethod
    def _keys(monkeypatch, module, driver, **kwargs):
        """``{job key: trial keys}`` of the grid *driver* hands the engine."""
        grids = []

        def captured(jobs, protocol, execution=None):
            grids.append(expand_jobs(jobs, protocol))
            return {}

        monkeypatch.setattr(module, "run_experiment_grid", captured)
        driver(FAST, datasets=["youtube"], **kwargs)
        (expanded,) = grids
        keys = {}
        for job, spec in expanded:
            keys.setdefault(job.key, []).append(spec.key)
        return keys

    def test_the_noise_free_row_is_figure3s_activedp_trial(self, monkeypatch):
        figure3 = self._keys(
            monkeypatch, figure3_module, run_figure3, frameworks=["activedp"]
        )
        noise = self._keys(
            monkeypatch, noise_module, run_table5_label_noise, noise_rates=(0.0, 0.05)
        )

        assert noise[(0.0, "youtube")] == figure3[("youtube", "activedp")]
        assert noise[(0.05, "youtube")] != figure3[("youtube", "activedp")]


class TestReporting:
    def _results(self):
        return run_table3_ablation(FAST, datasets=["youtube"], variants=["Baseline", "ActiveDP"])

    def test_text_table_contains_rows_and_datasets(self):
        table = format_result_table(self._results())
        assert "Baseline" in table and "ActiveDP" in table and "youtube" in table

    def test_markdown_table_structure(self):
        markdown = render_markdown_table(self._results())
        lines = markdown.splitlines()
        assert lines[0].startswith("| Method")
        assert lines[1].startswith("|---")
        assert len(lines) == 4

    def test_curve_series_format(self):
        results = self._results()
        series = format_curve_series(results["ActiveDP"]["youtube"])
        assert series.startswith("activedp on youtube:")
