"""Import-order regression tests for the runner subsystem.

``repro.runner`` must be importable in a fresh interpreter *before* any
``repro.experiments`` module: spawn start-method platforms (the macOS and
Windows default) bootstrap process-pool workers by unpickling
``repro.runner.executor.run_trial``, which imports ``repro.runner`` first.
A module-level import of ``repro.experiments`` from inside the runner
closes a cycle through ``repro/experiments/__init__.py`` and breaks that
bootstrap (see REVIEW history), so these tests exercise every entry module
in a clean subprocess.
"""

import subprocess
import sys

import pytest

ENTRY_MODULES = [
    "repro.runner",
    "repro.runner.spec",
    "repro.runner.results.pickle_store",
    "repro.runner.results.indexed",
    "repro.runner.results",
    "repro.runner.brokers.spool",
    "repro.runner.brokers",
    "repro.runner.worker",
    "repro.runner.query",
    "repro.runner.executor",
    "repro.runner.engine",
    "repro.experiments",
]


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_fresh_interpreter_import(module, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, (
        f"`import {module}` failed in a fresh interpreter:\n{proc.stderr}"
    )


def test_worker_payload_unpickles_in_fresh_interpreter(subprocess_env):
    """The exact object a pool worker unpickles must import cleanly."""
    code = (
        "import pickle, sys\n"
        "from repro.runner.executor import run_trial\n"
        "payload = pickle.dumps(run_trial)\n"
        "assert pickle.loads(payload) is run_trial\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
