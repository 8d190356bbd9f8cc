"""Label models: aggregate noisy LF outputs into probabilistic labels.

The paper uses MeTaL [Ratner et al. 2019] as the label model; this package
provides an equivalent accuracy-parameterised model plus two simpler
alternatives (majority vote and an EM-trained generative model) so that the
label-model choice can itself be ablated.

The two EM models share one base, :class:`EMLabelModel`: one fit loop over
the matrix's distinct vote rows with its cold start, warm-start check and
stopping rules, and one ``predict_proba`` path.  Each model adds only its
parameters and two model-specific steps from :mod:`repro.numerics.em` —
the EM iteration and the posterior — plus how a warm start's carried
parameters map onto a new fit.
"""

from repro.label_models.base import BaseLabelModel, EMLabelModel, LabelModelWarmStart
from repro.label_models.majority_vote import MajorityVoteLabelModel
from repro.label_models.generative import GenerativeLabelModel
from repro.label_models.metal import MeTaLLabelModel

__all__ = [
    "BaseLabelModel",
    "EMLabelModel",
    "EM_LABEL_MODELS",
    "LABEL_MODEL_NAMES",
    "LabelModelWarmStart",
    "MajorityVoteLabelModel",
    "GenerativeLabelModel",
    "MeTaLLabelModel",
    "get_label_model",
]

_REGISTRY = {
    "majority_vote": MajorityVoteLabelModel,
    "generative": GenerativeLabelModel,
    "metal": MeTaLLabelModel,
}

#: Registry names, the values ``ActiveDPConfig.label_model`` accepts.
LABEL_MODEL_NAMES = tuple(_REGISTRY)

#: Registry names of the EM-fitted models — the ones that accept the
#: ``early_stop`` knob (majority vote has no numeric inner loop to
#: configure).
EM_LABEL_MODELS = frozenset(
    name for name, cls in _REGISTRY.items() if issubclass(cls, EMLabelModel)
)


def get_label_model(name: str, **kwargs) -> BaseLabelModel:
    """Instantiate a label model by registry name.

    Valid names: ``"majority_vote"``, ``"generative"``, ``"metal"``.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown label model {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
