"""Table 4: sensitivity of ActiveDP to the sample-selection strategy.

ActiveDP is run with five different samplers (Section 4.3.2): passive
(random), uncertainty sampling, LAL, SEU and the ADP sampler proposed by the
paper.
"""

from __future__ import annotations

from repro.datasets import dataset_names
from repro.experiments.protocol import EvaluationProtocol, FrameworkResult
from repro.runner.engine import ExecutionConfig, GridJob, nest_results, run_experiment_grid

TABLE4_SAMPLERS: dict[str, str] = {
    "Passive": "passive",
    "US": "uncertainty",
    "LAL": "lal",
    "SEU": "seu",
    "ADP": "adp",
}


def run_table4_samplers(
    protocol: EvaluationProtocol | None = None,
    datasets: list[str] | None = None,
    samplers: list[str] | None = None,
    execution: ExecutionConfig | str | None = None,
) -> dict[str, dict[str, FrameworkResult]]:
    """Run the sampler study; returns ``sampler -> dataset -> FrameworkResult``.

    *execution* is an :class:`ExecutionConfig` or a preset name
    (``"serial"``, ``"parallel"``, ``"distributed"``).
    """
    protocol = protocol or EvaluationProtocol()
    datasets = datasets or dataset_names()
    samplers = samplers or list(TABLE4_SAMPLERS)

    jobs = [
        GridJob(
            key=(sampler_label, dataset),
            framework="activedp",
            dataset=dataset,
            pipeline_kwargs={"config_overrides": {"sampler": TABLE4_SAMPLERS[sampler_label]}},
        )
        for sampler_label in samplers
        for dataset in datasets
    ]
    return nest_results(run_experiment_grid(jobs, protocol, execution))
