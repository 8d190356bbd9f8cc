"""Table 3: ablation study of LabelPick and ConFusion.

Four ActiveDP variants are compared (Section 4.3.1):

* **Baseline** — all user-returned LFs train the label model, labels come
  from the label model alone (``use_labelpick=False``, ``use_confusion=False``);
* **LabelPick** — only LF selection enabled;
* **ConFusion** — only confidence-based aggregation enabled;
* **ActiveDP** — both techniques enabled.
"""

from __future__ import annotations

from repro.datasets import dataset_names
from repro.experiments.protocol import EvaluationProtocol, FrameworkResult
from repro.runner.engine import ExecutionConfig, GridJob, nest_results, run_experiment_grid

ABLATION_VARIANTS: dict[str, dict[str, bool]] = {
    "Baseline": {"use_labelpick": False, "use_confusion": False},
    "LabelPick": {"use_labelpick": True, "use_confusion": False},
    "ConFusion": {"use_labelpick": False, "use_confusion": True},
    "ActiveDP": {"use_labelpick": True, "use_confusion": True},
}


def run_table3_ablation(
    protocol: EvaluationProtocol | None = None,
    datasets: list[str] | None = None,
    variants: list[str] | None = None,
    execution: ExecutionConfig | str | None = None,
) -> dict[str, dict[str, FrameworkResult]]:
    """Run the ablation study; returns ``variant -> dataset -> FrameworkResult``.

    *execution* is an :class:`ExecutionConfig` or a preset name
    (``"serial"``, ``"parallel"``, ``"distributed"``).
    """
    protocol = protocol or EvaluationProtocol()
    datasets = datasets or dataset_names()
    variants = variants or list(ABLATION_VARIANTS)

    jobs = [
        GridJob(
            key=(variant, dataset),
            framework="activedp",
            dataset=dataset,
            pipeline_kwargs={"config_overrides": dict(ABLATION_VARIANTS[variant])},
        )
        for variant in variants
        for dataset in datasets
    ]
    return nest_results(run_experiment_grid(jobs, protocol, execution))
