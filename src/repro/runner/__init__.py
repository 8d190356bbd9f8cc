"""Experiment execution engine.

One orchestration path for every experiment grid in the reproduction:

* :mod:`repro.runner.spec` — frozen, content-hashed trial descriptions;
* :mod:`repro.runner.results` — result persistence: the
  content-addressed pickle-shard :class:`ResultCache`, and its subclass
  :class:`IndexedResultStore`, the one store every layer holds, whose
  ``results.sqlite3`` run-history database is queryable via
  :class:`RunHistoryDB` and ``python -m repro.runner.query`` (the query
  CLI is imported lazily — not re-exported here — for the same ``-m``
  double-import reason as the worker);
* :mod:`repro.runner.executor` — the per-trial loop and process-pool
  scheduling with a serial fallback;
* :mod:`repro.runner.brokers` — the work queue for distributing trials
  across machines: the filesystem :class:`SpoolBroker` (dataset-sharded
  task layout, atomic rename leases claimed in batches, TTL + heartbeat
  crash recovery and failure logs);
* :mod:`repro.runner.worker` — the worker daemon
  (``python -m repro.runner.worker``) that leases and executes brokered
  trials anywhere the queue and cache locations are visible (imported
  lazily — not re-exported here — so running it with ``-m`` does not
  double-import the module);
* :mod:`repro.runner.supervisor` — the elastic-fleet supervisor
  (``python -m repro.runner.supervisor``) that spawns and retires worker
  daemons from queue depth and shard backlog (imported lazily for the
  same ``-m`` reason as the worker);
* :mod:`repro.runner.fleet` — the one set of helpers for anything that
  spawns fleet processes: :func:`subprocess_env` (child interpreters
  resolve ``repro`` like the parent), :func:`fleet_paths` and the
  :func:`worker_command` / :func:`supervisor_command` builders shared by
  the supervisor, the examples and the serving smoke tests;
* :mod:`repro.runner.engine` — grid expansion, cache-first scheduling
  (local, process-pool or distributed) and aggregation into
  :class:`~repro.experiments.protocol.FrameworkResult`s.

See ``docs/architecture.md`` for the module map and the distributed
protocol, and ``docs/adding_experiments.md`` for how to add a grid.
"""

from repro.runner.spec import CACHE_FORMAT_VERSION, TrialSpec
from repro.runner.results import (
    TRIAL_METRICS,
    IndexedResultStore,
    ResultCache,
    RunHistoryDB,
)
from repro.runner.brokers import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL,
    LeasedTrial,
    RemoteTrialError,
    SpoolBroker,
    SpoolStats,
    SpoolTimeout,
)
from repro.runner.executor import execute_trials, run_trial, run_trial_on_split
from repro.runner.fleet import (
    fleet_paths,
    subprocess_env,
    supervisor_command,
    worker_command,
)
from repro.runner.engine import (
    ExecutionConfig,
    GridJob,
    GridReport,
    TrialOutcome,
    expand_jobs,
    last_report,
    nest_results,
    run_experiment_grid,
    run_specs,
)

__all__ = [
    "nest_results",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CLAIM_BATCH",
    "DEFAULT_LEASE_TTL",
    "TRIAL_METRICS",
    "TrialSpec",
    "IndexedResultStore",
    "ResultCache",
    "RunHistoryDB",
    "LeasedTrial",
    "RemoteTrialError",
    "SpoolBroker",
    "SpoolStats",
    "SpoolTimeout",
    "execute_trials",
    "run_trial",
    "run_trial_on_split",
    "fleet_paths",
    "subprocess_env",
    "supervisor_command",
    "worker_command",
    "ExecutionConfig",
    "GridJob",
    "GridReport",
    "TrialOutcome",
    "expand_jobs",
    "last_report",
    "run_experiment_grid",
    "run_specs",
]
