"""Evaluation protocol (paper Section 4.1.3).

Every framework is evaluated by simulating ``n_iterations`` manual
interactions, training the downstream model and measuring its test accuracy
every ``eval_every`` iterations, and averaging the resulting performance
curve over several seeds.  The headline metric is the *average test accuracy
during the run* (area under the performance curve), which is what Tables 3-5
of the paper report.

The paper runs 300 iterations with 5 seeds on corpora of up to 25k
documents; the defaults here are scaled down so the full benchmark suite
completes in minutes, and every knob is exposed so a paper-scale run remains
a configuration change, not a code change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.results import RunHistory


@dataclass
class EvaluationProtocol:
    """Parameters of one evaluation run.

    Attributes
    ----------
    n_iterations:
        Number of simulated user interactions (paper: 300).
    eval_every:
        Evaluate the downstream model every this many iterations (paper: 10).
    n_seeds:
        Number of repetitions with different seeds (paper: 5).
    base_seed:
        Seed from which per-repetition seeds are derived.
    dataset_scale:
        Scale factor passed to :func:`repro.datasets.load_dataset`; finite
        and positive.
    end_model_C:
        Inverse regularisation of the downstream logistic regression;
        finite and positive.
    """

    n_iterations: int = 50
    eval_every: int = 10
    n_seeds: int = 2
    base_seed: int = 0
    dataset_scale: float = 1.0
    end_model_C: float = 1.0

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if not (math.isfinite(self.dataset_scale) and self.dataset_scale > 0):
            raise ValueError(
                f"dataset_scale must be finite and positive, got {self.dataset_scale!r}"
            )
        if not (math.isfinite(self.end_model_C) and self.end_model_C > 0):
            raise ValueError(
                f"end_model_C must be finite and positive, got {self.end_model_C!r}"
            )

    @classmethod
    def paper(cls, **overrides) -> "EvaluationProtocol":
        """The paper's full evaluation protocol (Section 4.1.3).

        300 simulated interactions, downstream evaluation every 10
        iterations, 5 seeds.  Keyword *overrides* replace individual fields
        (e.g. ``dataset_scale`` to run the protocol on a scaled-down corpus).
        """
        params = {"n_iterations": 300, "eval_every": 10, "n_seeds": 5}
        params.update(overrides)
        return cls(**params)

    def evaluation_iterations(self) -> list[int]:
        """Iterations (1-based counts) at which the downstream model is evaluated."""
        points = list(range(self.eval_every, self.n_iterations + 1, self.eval_every))
        if not points or points[-1] != self.n_iterations:
            points.append(self.n_iterations)
        return points


@dataclass
class FrameworkResult:
    """Aggregated result of one framework on one dataset.

    Attributes
    ----------
    framework:
        Framework name.
    dataset:
        Dataset name.
    histories:
        Per-seed run histories.
    average_accuracy:
        Mean (over seeds) of the average test accuracy during the run — the
        paper's headline metric.
    final_accuracy:
        Mean (over seeds) test accuracy at the final evaluation point.
    curve:
        Mean performance curve: list of ``(iteration, accuracy)`` pairs.
    """

    framework: str
    dataset: str
    histories: list[RunHistory] = field(default_factory=list)
    average_accuracy: float = 0.0
    final_accuracy: float = 0.0
    curve: list[tuple[int, float]] = field(default_factory=list)


def run_single_seed(
    framework: str,
    data_split,
    protocol: EvaluationProtocol,
    seed: int,
    pipeline_kwargs: dict | None = None,
) -> RunHistory:
    """Run one framework on one already-generated dataset split with one seed.

    Delegates to the engine's trial loop so the pipeline's real per-iteration
    records (query index, LF name, pseudo-label, ...) land in the history.
    """
    from repro.runner.executor import run_trial_on_split

    return run_trial_on_split(framework, data_split, protocol, seed, pipeline_kwargs)


def run_framework_on_dataset(
    framework: str,
    dataset_name: str,
    protocol: EvaluationProtocol | None = None,
    pipeline_kwargs: dict | None = None,
    execution=None,
) -> FrameworkResult:
    """Run one framework on one benchmark dataset across the protocol's seeds.

    *execution* is an optional :class:`repro.runner.ExecutionConfig` — or a
    preset name (``"serial"``, ``"parallel"``, ``"distributed"``) —
    controlling parallelism, result caching and distribution (default:
    serial, no cache).
    """
    # Imported lazily: the runner's spec/engine modules import this module.
    from repro.runner.engine import GridJob, run_experiment_grid

    protocol = protocol or EvaluationProtocol()
    key = (framework, dataset_name)
    job = GridJob(
        key=key, framework=framework, dataset=dataset_name, pipeline_kwargs=pipeline_kwargs
    )
    return run_experiment_grid([job], protocol, execution)[key]


def summarize_histories(
    framework: str, dataset_name: str, histories: list[RunHistory]
) -> FrameworkResult:
    """Aggregate per-seed histories into a :class:`FrameworkResult`."""
    average_accuracy = float(np.mean([h.average_test_accuracy() for h in histories]))
    final_accuracy = float(np.mean([h.final_test_accuracy() for h in histories]))

    curve: list[tuple[int, float]] = []
    if histories:
        reference = histories[0].evaluation_points()
        for position, (iteration, _) in enumerate(reference):
            values = []
            for history in histories:
                points = history.evaluation_points()
                if position < len(points):
                    values.append(points[position][1])
            if values:
                curve.append((iteration, float(np.mean(values))))

    return FrameworkResult(
        framework=framework,
        dataset=dataset_name,
        histories=histories,
        average_accuracy=average_accuracy,
        final_accuracy=final_accuracy,
        curve=curve,
    )
