"""Baseline interactive-labelling frameworks from the paper's evaluation.

Every framework implements the same :class:`InteractivePipeline` interface —
one ``step()`` per simulated-user interaction and ``generate_labels()`` for
the training labels produced so far — so the experiment harness can run them
interchangeably.  Each checkpoint calls ``evaluate(C)``: it calls
``generate_labels()`` once, trains the downstream logistic regression (inverse
regularisation ``C``) on those labels and returns an
:class:`~repro.core.evaluation.Evaluation` of its test accuracy and the
labels' coverage and accuracy:

* :class:`ActiveDPPipeline` — the paper's method (wraps ``repro.core``);
* :class:`LFSetPipeline` — non-interactive replay of a fixed wire-schema LF
  list through ActiveDP (the serving layer's batch pipeline);
* :class:`NemoPipeline` — interactive data programming with SEU selection;
* :class:`IWSPipeline` — interactive weak supervision (LF verification);
* :class:`RevisingLFPipeline` — LF-output revision on queried instances;
* :class:`UncertaintySamplingPipeline` — classical pool-based AL.

Nemo, IWS and Revising LF subclass :class:`LabelModelPipeline`, which keeps
their LFs in one column store on ``train``, refits a fresh MeTaL label model
in one place and reads their labels as its argmax over the LF-covered rows.
"""

from repro.baselines.base import InteractivePipeline, LabelModelPipeline
from repro.baselines.activedp import ActiveDPPipeline
from repro.baselines.lfset import LFSetPipeline
from repro.baselines.nemo import NemoPipeline
from repro.baselines.iws import IWSPipeline
from repro.baselines.revising_lf import RevisingLFPipeline
from repro.baselines.uncertainty_pipeline import UncertaintySamplingPipeline

__all__ = [
    "InteractivePipeline",
    "LabelModelPipeline",
    "ActiveDPPipeline",
    "LFSetPipeline",
    "NemoPipeline",
    "IWSPipeline",
    "RevisingLFPipeline",
    "UncertaintySamplingPipeline",
    "get_pipeline",
    "pipeline_names",
]

_REGISTRY = {
    "activedp": ActiveDPPipeline,
    "lfset": LFSetPipeline,
    "nemo": NemoPipeline,
    "iws": IWSPipeline,
    "revising_lf": RevisingLFPipeline,
    "uncertainty": UncertaintySamplingPipeline,
}


def pipeline_names() -> list[str]:
    """Canonical names of the paper's benchmark frameworks.

    ``lfset`` — the serving layer's replay pipeline — is reachable through
    :func:`get_pipeline` but deliberately not enumerated here: it requires
    an explicit LF list and is not a framework the evaluation protocol
    benchmarks on its own.
    """
    return ["activedp", "nemo", "iws", "revising_lf", "uncertainty"]


def get_pipeline(name: str, data_split, random_state=None, **kwargs) -> InteractivePipeline:
    """Instantiate a framework by name against a :class:`~repro.datasets.DataSplit`."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown framework {name!r}; choose from {pipeline_names()}"
        ) from None
    return cls(data_split, random_state=random_state, **kwargs)
