"""Tests for the run-history query CLI (``python -m repro.runner.query``)."""

import json

import pytest

from repro.core.results import IterationRecord, RunHistory
from repro.experiments import EvaluationProtocol
from repro.runner import TrialSpec
from repro.runner.query import main, trajectory_diff
from repro.runner.results import IndexedResultStore, RunHistoryDB

PROTOCOL = EvaluationProtocol(
    n_iterations=3, eval_every=3, n_seeds=1, dataset_scale=0.15
)


def _history(seed, framework, accuracy):
    history = RunHistory(framework=framework, dataset="youtube", seed=seed)
    record = IterationRecord(iteration=0, query_index=0)
    record.test_accuracy = accuracy
    record.lm_warm_fits = seed  # a metric-predicate target
    history.add(record)
    return history


@pytest.fixture
def cache_dir(tmp_path):
    """A populated indexed cache: 3 trials over 2 frameworks."""
    store = IndexedResultStore(tmp_path / "cache")
    for seed, framework, accuracy in (
        (1, "activedp", 0.9),
        (2, "activedp", 0.8),
        (1, "uncertainty", 0.4),
    ):
        spec = TrialSpec(
            framework=framework, dataset="youtube", seed=seed, protocol=PROTOCOL
        )
        store.put(spec, _history(seed, framework, accuracy), wall_seconds=1.0)
    store.db.close()
    return str(tmp_path / "cache")


def _json_rows(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestListing:
    def test_filters_and_where(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--framework", "activedp",
                     "--where", "final_accuracy >= 0.85", "--json"]) == 0
        rows = _json_rows(capsys)
        assert len(rows) == 1
        assert rows[0]["seed"] == 1 and rows[0]["framework"] == "activedp"

    def test_table_output_lists_all_trials(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("activedp") == 2
        assert "uncertainty" in out
        assert "..." in out  # content keys are shortened in table cells

    def test_empty_result_prints_placeholder(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--dataset", "nope"]) == 0
        assert "(no rows)" in capsys.readouterr().out

    def test_needs_a_database_location(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main([])


class TestLeaderboard:
    def test_groups_ranked_by_mean_metric(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--leaderboard",
                     "--metric", "final_accuracy", "--json"]) == 0
        rows = _json_rows(capsys)
        assert [row["framework"] for row in rows] == ["activedp", "uncertainty"]
        assert rows[0]["mean"] == pytest.approx(0.85)

    def test_group_by_multiple_columns(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--leaderboard",
                     "--group-by", "framework,dataset", "--json"]) == 0
        rows = _json_rows(capsys)
        assert all(row["dataset"] == "youtube" for row in rows)

    def test_unknown_metric_is_rejected(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["--cache-dir", cache_dir, "--leaderboard",
                  "--metric", "no_such_metric"])

    @pytest.mark.parametrize("group_by", ["nosuch", "framework, 1; select"])
    def test_unknown_group_by_column_is_a_usage_error(self, cache_dir, capsys, group_by):
        with pytest.raises(SystemExit) as exit_info:
            main(["--cache-dir", cache_dir, "--leaderboard", "--group-by", group_by])
        assert exit_info.value.code == 2
        assert "group-by columns" in capsys.readouterr().err


class TestReindex:
    def test_backfills_a_pickle_only_cache(self, cache_dir, capsys):
        """Deleting the index then --reindex recovers every trial row."""
        db_file = f"{cache_dir}/results.sqlite3"
        import os

        os.unlink(db_file)
        assert main(["--cache-dir", cache_dir, "--counts", "--json"]) == 0
        assert _json_rows(capsys)[0]["trials"] == 0
        assert main(["--cache-dir", cache_dir, "--reindex",
                     "--counts", "--json"]) == 0
        captured = capsys.readouterr()
        assert "reindexed 3 trial(s)" in captured.err
        assert json.loads(captured.out)["trials"] == 3

    def test_reindex_requires_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["--db", str(tmp_path / "x.sqlite3"), "--reindex"])


class TestIterations:
    def test_lists_per_iteration_rows(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--json"]) == 0
        key = _json_rows(capsys)[0]["key"]
        assert main(["--cache-dir", cache_dir, "--iterations", key, "--json"]) == 0
        rows = _json_rows(capsys)
        assert len(rows) == 1 and rows[0]["iteration"] == 0


class TestBenchmarkTrajectory:
    @pytest.fixture
    def bench_db(self, tmp_path):
        path = tmp_path / "BENCH_history.sqlite3"
        db = RunHistoryDB(path)
        db.record_benchmark("bench_demo", {"wall": 2.0}, recorded_at=100.0)
        db.record_benchmark("bench_demo", {"wall": 1.0}, recorded_at=200.0)
        db.close()
        return path

    def test_trajectory_listing(self, bench_db, capsys):
        assert main(["--db", str(bench_db), "--benchmarks", "--json"]) == 0
        rows = _json_rows(capsys)
        assert [row["wall"] for row in rows] == [2.0, 1.0]  # oldest first

    def test_trajectory_diff_reports_drift_of_latest_run(self, bench_db, tmp_path, capsys):
        committed = tmp_path / "BENCH_core.json"
        committed.write_text(json.dumps({"bench_demo": {"wall": 2.0}}))
        assert main(["--db", str(bench_db),
                     "--trajectory-diff", str(committed)]) == 0
        out = capsys.readouterr().out
        assert "bench_demo.wall: 2 -> 1 (-50.0%)" in out

    def test_trajectory_diff_handles_missing_baseline(self, bench_db, tmp_path):
        db = RunHistoryDB(bench_db)
        lines = trajectory_diff(db, tmp_path / "absent.json")
        db.close()
        assert "no committed baseline" in lines[0]

    def test_new_benchmark_without_baseline_is_flagged(self, bench_db, tmp_path):
        committed = tmp_path / "BENCH_core.json"
        committed.write_text(json.dumps({"bench_other": {"wall": 5.0}}))
        db = RunHistoryDB(bench_db)
        lines = trajectory_diff(db, committed)
        db.close()
        assert lines == ["bench_demo: new benchmark (no committed baseline)"]

    def test_no_drift_when_values_match(self, bench_db, tmp_path):
        committed = tmp_path / "BENCH_core.json"
        committed.write_text(json.dumps({"bench_demo": {"wall": 1.0}}))
        db = RunHistoryDB(bench_db)
        lines = trajectory_diff(db, committed)
        db.close()
        assert lines == ["(no drift vs committed baseline)"]


class TestRecordIntegration:
    def test_record_feeds_the_trajectory_db(self, tmp_path, monkeypatch, capsys):
        """benchmarks/record.py appends a trajectory row on every record()."""
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        sys.path.insert(0, str(bench_dir))
        try:
            import record as bench_record
        finally:
            sys.path.pop(0)
        monkeypatch.setenv("REPRO_BENCH_RECORD_FILE", str(tmp_path / "B.json"))
        monkeypatch.setenv("REPRO_BENCH_DB", str(tmp_path / "B.sqlite3"))
        bench_record.record("bench_demo", {"wall_s": 3.0, "nested": {"n": 7}})
        bench_record.record("bench_demo", {"wall_s": 2.0, "nested": {"n": 7}})
        assert main(["--db", str(tmp_path / "B.sqlite3"),
                     "--benchmarks", "bench_demo", "--json"]) == 0
        rows = _json_rows(capsys)
        assert [row["wall_s"] for row in rows] == [3.0, 2.0]
        assert rows[0]["nested.n"] == 7  # numeric leaves are flattened
        # The JSON file still holds only the latest numbers.
        assert json.loads((tmp_path / "B.json").read_text())["bench_demo"][
            "wall_s"
        ] == 2.0
