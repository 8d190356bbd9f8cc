"""Tests for the shared fleet-process helpers in ``repro.runner.fleet``.

These helpers replaced three copy-pasted variants (the supervisor's worker
spawner, the distributed example's, and the runner test fixtures'), so the
contract here is what all those call sites rely on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.runner import (
    fleet_paths,
    subprocess_env,
    supervisor_command,
    worker_command,
)
from repro.runner.fleet import BLAS_THREAD_VARIABLES

SRC_DIR = str(Path(subprocess_env.__code__.co_filename).resolve().parents[2])


class TestSubprocessEnv:
    def test_prepends_package_dir_to_pythonpath(self, monkeypatch):
        monkeypatch.delenv("PYTHONPATH", raising=False)
        env = subprocess_env()
        assert env["PYTHONPATH"] == SRC_DIR

    def test_preserves_existing_entries(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/elsewhere")
        env = subprocess_env()
        assert env["PYTHONPATH"].split(os.pathsep) == [SRC_DIR, "/elsewhere"]

    def test_idempotent_when_already_present(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep + "/elsewhere")
        env = subprocess_env()
        assert env["PYTHONPATH"].split(os.pathsep).count(SRC_DIR) == 1

    def test_extra_entries_merge_on_top(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_TEST_SENTINEL", raising=False)
        env = subprocess_env(extra={"REPRO_FLEET_TEST_SENTINEL": "1"})
        assert env["REPRO_FLEET_TEST_SENTINEL"] == "1"
        assert os.environ.get("REPRO_FLEET_TEST_SENTINEL") is None

    def test_blas_threads_default_to_one(self, monkeypatch):
        for variable in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        env = subprocess_env()
        assert {variable: env[variable] for variable in BLAS_THREAD_VARIABLES} == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def test_blas_threads_keep_the_callers_value(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = subprocess_env(extra={"OMP_NUM_THREADS": "2"})
        assert env["OPENBLAS_NUM_THREADS"] == "4"
        assert env["OMP_NUM_THREADS"] == "2"
        assert env["MKL_NUM_THREADS"] == "1"

    def test_child_interpreter_resolves_repro(self):
        result = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__name__)"],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "repro"


def test_fleet_paths_layout(tmp_path):
    spool, cache_dir = fleet_paths(tmp_path)
    assert spool == str(tmp_path / "spool")
    assert cache_dir == str(tmp_path / "cache")
    # The helper never creates directories; the spool and store create theirs.
    assert not Path(spool).exists() and not Path(cache_dir).exists()


class TestCommandBuilders:
    def test_worker_command_defaults(self):
        command = worker_command("/q", "/c")
        assert command[:3] == [sys.executable, "-m", "repro.runner.worker"]
        assert command[3:] == ["--spool", "/q", "--cache-dir", "/c"]

    def test_worker_command_renders_only_given_knobs(self):
        command = worker_command(
            "/q", "/c",
            max_trials=3, idle_timeout=2.5, worker_id="w-1", quiet=True,
        )
        rest = command[3:]
        assert rest[:4] == ["--spool", "/q", "--cache-dir", "/c"]
        assert ("--idle-timeout", "2.5") == tuple(rest[rest.index("--idle-timeout"):][:2])
        assert ("--max-trials", "3") == tuple(rest[rest.index("--max-trials"):][:2])
        assert ("--worker-id", "w-1") == tuple(rest[rest.index("--worker-id"):][:2])
        assert rest[-1] == "--quiet"
        for absent in ("--lease-ttl", "--claim-batch", "--poll-interval"):
            assert absent not in rest

    def test_supervisor_command_defaults_and_knobs(self):
        command = supervisor_command("/q", "/c")
        assert command[:3] == [sys.executable, "-m", "repro.runner.supervisor"]
        assert "--drain" not in command and "--quiet" not in command

        full = supervisor_command(
            "/q", "/c", max_workers=4, tasks_per_worker=2,
            worker_idle_timeout=1.5, drain=True, quiet=True,
        )
        rest = full[3:]
        assert ("--max-workers", "4") == tuple(rest[rest.index("--max-workers"):][:2])
        assert ("--tasks-per-worker", "2") == tuple(
            rest[rest.index("--tasks-per-worker"):][:2]
        )
        assert rest[-2:] == ["--drain", "--quiet"]
        assert "--min-workers" not in rest

    def test_worker_argv_parses_under_the_daemon_cli(self, tmp_path):
        # The builder's flag spelling must match the daemon's parser: a
        # worker launched with max_trials=0 parses, runs zero trials and
        # exits cleanly.
        spool, cache_dir = fleet_paths(tmp_path)
        command = worker_command(spool, cache_dir, max_trials=0, quiet=True)
        result = subprocess.run(
            command, env=subprocess_env(), capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
