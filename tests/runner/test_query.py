"""Tests for the run-history query CLI (``python -m repro.runner.query``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.results import IterationRecord, RunHistory
from repro.experiments import EvaluationProtocol
from repro.runner import TrialSpec
from repro.runner.query import main
from repro.runner.results import IndexedResultStore

#: The benchmark record module (``benchmarks/record.py``), run as a script.
RECORD_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "record.py"

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

    def test_reindex_requires_cache_dir(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit) as exit_info:
            main(["--reindex"])
        assert exit_info.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--db", "x.sqlite3"], ["--benchmarks"], ["--trajectory-diff", "x"]]
    )
    def test_benchmark_flags_are_gone(self, cache_dir, argv):
        """The index holds trials only: no benchmark or database-file flags."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--cache-dir", cache_dir, *argv])
        assert exit_info.value.code == 2


class TestIterations:
    def test_lists_per_iteration_rows(self, cache_dir, capsys):
        assert main(["--cache-dir", cache_dir, "--json"]) == 0
        key = _json_rows(capsys)[0]["key"]
        assert main(["--cache-dir", cache_dir, "--iterations", key, "--json"]) == 0
        rows = _json_rows(capsys)
        assert len(rows) == 1 and rows[0]["iteration"] == 0


@pytest.fixture
def bench_record():
    """``benchmarks/record.py`` imported as a module."""
    sys.path.insert(0, str(RECORD_SCRIPT.parent))
    try:
        import record
    finally:
        sys.path.pop(0)
    return record


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestBenchmarkTrajectory:
    """``python benchmarks/record.py CURRENT.json COMMITTED.json`` drift lines."""

    @pytest.fixture
    def current(self, tmp_path):
        return _write_json(tmp_path / "BENCH_ci.json", {"bench_demo": {"wall": 1.0}})

    def test_trajectory_diff_reports_drift_of_latest_run(
        self, bench_record, current, tmp_path, capsys
    ):
        committed = _write_json(tmp_path / "BENCH_core.json", {"bench_demo": {"wall": 2.0}})
        assert bench_record.main([str(current), str(committed)]) == 0
        out = capsys.readouterr().out
        assert out == "bench_demo.wall: 2 -> 1 (-50.0%)\n"

    def test_trajectory_diff_handles_missing_baseline(self, bench_record, tmp_path):
        lines = bench_record.drift({"bench_demo": {"wall": 1.0}}, tmp_path / "absent.json")
        assert len(lines) == 1
        assert lines[0].startswith(f"(no committed baseline at {tmp_path / 'absent.json'}: ")

    def test_new_benchmark_without_baseline_is_flagged(self, bench_record, tmp_path):
        committed = _write_json(tmp_path / "BENCH_core.json", {"bench_other": {"wall": 5.0}})
        lines = bench_record.drift({"bench_demo": {"wall": 1.0}}, committed)
        assert lines == ["bench_demo: new benchmark (no committed baseline)"]

    def test_no_drift_when_values_match(self, bench_record, tmp_path):
        committed = _write_json(tmp_path / "BENCH_core.json", {"bench_demo": {"wall": 1.0}})
        lines = bench_record.drift({"bench_demo": {"wall": 1.0}}, committed)
        assert lines == ["(no drift vs committed baseline)"]

    def test_nested_leaves_zero_baseline_and_bools(self, bench_record, tmp_path):
        committed = _write_json(
            tmp_path / "BENCH_core.json",
            {"b": {"n": {"x": 4, "zero": 0}, "ok": True, "label": "a", "gone": 1}},
        )
        current = {"b": {"n": {"x": 5, "zero": 3}, "ok": False, "label": "b"}}
        assert bench_record.drift(current, committed) == [
            "b.n.x: 4 -> 5 (+25.0%)",
            "b.n.zero: 0 -> 3",
        ]

    def test_script_needs_two_paths(self, bench_record, capsys):
        assert bench_record.main(["only_one.json"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_script_runs_without_the_package(self, current, tmp_path):
        """The drift script imports nothing from ``repro``."""
        committed = _write_json(tmp_path / "BENCH_core.json", {"bench_demo": {"wall": 2.0}})
        probe = (
            "import runpy, sys\n"
            f"sys.argv = ['record.py', {str(current)!r}, {str(committed)!r}]\n"
            "try:\n"
            f"    runpy.run_path({str(RECORD_SCRIPT)!r}, run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "bench_demo.wall: 2 -> 1 (-50.0%)\n"


class TestRecordIntegration:
    def test_record_writes_only_the_json(self, bench_record, tmp_path, monkeypatch):
        """record() keeps the latest numbers in the JSON file and nothing else."""
        monkeypatch.setenv("REPRO_BENCH_RECORD_FILE", str(tmp_path / "B.json"))
        bench_record.record("bench_demo", {"wall_s": 3.0, "nested": {"n": 7}})
        bench_record.record("bench_demo", {"wall_s": 2.0, "nested": {"n": 7}})
        assert json.loads((tmp_path / "B.json").read_text()) == {
            "bench_demo": {"nested": {"n": 7}, "wall_s": 2.0}
        }
        assert sorted(path.name for path in tmp_path.iterdir()) == ["B.json"]
