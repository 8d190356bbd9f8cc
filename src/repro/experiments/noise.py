"""Table 5: robustness of ActiveDP to simulated label noise.

ActiveDP is run with a noisy simulated user that answers a fraction of the
queries with an LF targeting the flipped label (Section 4.3.3); noise rates
of 0 %, 5 %, 10 % and 15 % are compared.
"""

from __future__ import annotations

from repro.datasets import dataset_names
from repro.experiments.protocol import EvaluationProtocol, FrameworkResult
from repro.runner.engine import ExecutionConfig, GridJob, nest_results, run_experiment_grid

TABLE5_NOISE_RATES: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15)


def run_table5_label_noise(
    protocol: EvaluationProtocol | None = None,
    datasets: list[str] | None = None,
    noise_rates: tuple[float, ...] = TABLE5_NOISE_RATES,
    execution: ExecutionConfig | str | None = None,
) -> dict[float, dict[str, FrameworkResult]]:
    """Run the label-noise study; returns ``noise_rate -> dataset -> FrameworkResult``.

    *execution* is an :class:`ExecutionConfig` or a preset name
    (``"serial"``, ``"parallel"``, ``"distributed"``).
    """
    protocol = protocol or EvaluationProtocol()
    datasets = datasets or dataset_names()

    jobs = [
        GridJob(
            key=(noise_rate, dataset),
            framework="activedp",
            dataset=dataset,
            # The 0% row is Figure 3's plain ActiveDP trial: passing no rate
            # gives it that trial's content key, so a grid runs it once.
            pipeline_kwargs={"noise_rate": noise_rate} if noise_rate else None,
        )
        for noise_rate in noise_rates
        for dataset in datasets
    ]
    return nest_results(run_experiment_grid(jobs, protocol, execution))
