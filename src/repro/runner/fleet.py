"""Shared helpers for launching fleet processes (workers, supervisors, services).

Every place that spawns a ``python -m repro.runner.*`` daemon as a
subprocess — the supervisor spawning workers, the distributed example
spawning workers *and* a supervisor, the serving example spawning a server,
test suites spawning all of the above — needs the same three pieces of
setup, which had accumulated by copy-paste:

* :func:`subprocess_env` — an environment in which the child resolves
  ``repro`` the same way this process did (PYTHONPATH propagation) and
  runs its BLAS on one thread unless told otherwise;
* :func:`fleet_paths` — the conventional spool/cache directory layout under
  one shared work directory;
* :func:`worker_command` / :func:`supervisor_command` — the daemon argv
  builders, so flag spelling lives in one place.

The helpers build commands and environments only; they never spawn — the
callers own their process lifecycles (and tests can inspect the argv
without launching anything).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Thread-count variables of the BLAS builds numpy may link against.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def subprocess_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for fresh-interpreter ``repro`` subprocesses.

    Prepends the directory that provides the ``repro`` package to
    ``PYTHONPATH`` (unless already present) so a child interpreter resolves
    it the same way this process did — whether the parent was launched via
    ``PYTHONPATH=src``, an editable install, or anything else.  *extra*
    entries are merged on top of the inherited environment.

    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
    default to ``"1"``: a fleet runs one trial per process, and the trials'
    small matrices only lose time to a second BLAS thread competing with the
    other workers for the cores.  A value set in the inherited environment
    or in *extra* is kept.
    """
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    if extra:
        env.update(extra)
    for variable in BLAS_THREAD_VARIABLES:
        env.setdefault(variable, "1")
    paths = env.get("PYTHONPATH", "")
    if src_dir not in paths.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + paths if paths else "")
    return env


def fleet_paths(work_dir: str | Path) -> tuple[str, str]:
    """The conventional ``(spool, cache)`` layout under one work directory.

    Submitters, workers, supervisors and the serving layer all need to
    agree on where the queue and the result store live; this is the one
    definition of the ``<work_dir>/spool`` + ``<work_dir>/cache`` convention
    the examples and smokes use.  The directories are not created — the
    brokers and stores create their own locations on first use.
    """
    work_dir = Path(work_dir)
    return str(work_dir / "spool"), str(work_dir / "cache")


def worker_command(
    spool: str | Path,
    cache_dir: str | Path,
    lease_ttl: float | None = None,
    claim_batch: int | None = None,
    idle_timeout: float | None = None,
    max_trials: int | None = None,
    poll_interval: float | None = None,
    worker_id: str | None = None,
    quiet: bool = False,
) -> list[str]:
    """Argv for one ``python -m repro.runner.worker`` daemon.

    Only explicitly provided optional knobs become flags, so the daemon's
    own defaults stay authoritative.  ``sys.executable`` leads the argv —
    the child runs under the same interpreter as the caller.
    """
    command = [
        sys.executable,
        "-m",
        "repro.runner.worker",
        "--spool",
        str(spool),
        "--cache-dir",
        str(cache_dir),
    ]
    command += _optional_flags(
        ("--lease-ttl", lease_ttl),
        ("--claim-batch", claim_batch),
        ("--idle-timeout", idle_timeout),
        ("--max-trials", max_trials),
        ("--poll-interval", poll_interval),
        ("--worker-id", worker_id),
    )
    if quiet:
        command.append("--quiet")
    return command


def supervisor_command(
    spool: str | Path,
    cache_dir: str | Path,
    max_workers: int | None = None,
    min_workers: int | None = None,
    tasks_per_worker: int | None = None,
    worker_idle_timeout: float | None = None,
    claim_batch: int | None = None,
    lease_ttl: float | None = None,
    interval: float | None = None,
    drain: bool = False,
    quiet: bool = False,
) -> list[str]:
    """Argv for one ``python -m repro.runner.supervisor`` fleet process.

    Same conventions as :func:`worker_command`: unset knobs are omitted so
    the supervisor's defaults apply, and the caller's interpreter runs the
    child.
    """
    command = [
        sys.executable,
        "-m",
        "repro.runner.supervisor",
        "--spool",
        str(spool),
        "--cache-dir",
        str(cache_dir),
    ]
    command += _optional_flags(
        ("--max-workers", max_workers),
        ("--min-workers", min_workers),
        ("--tasks-per-worker", tasks_per_worker),
        ("--worker-idle-timeout", worker_idle_timeout),
        ("--claim-batch", claim_batch),
        ("--lease-ttl", lease_ttl),
        ("--interval", interval),
    )
    if drain:
        command.append("--drain")
    if quiet:
        command.append("--quiet")
    return command


def _optional_flags(*pairs: tuple[str, object]) -> list[str]:
    """Flatten ``(flag, value)`` pairs into argv, skipping ``None`` values."""
    flags: list[str] = []
    for flag, value in pairs:
        if value is not None:
            flags += [flag, str(value)]
    return flags
