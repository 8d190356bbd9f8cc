"""Active-learning substrate: query-instance selection strategies.

All samplers implement the same interface (:class:`BaseSampler.select`)
against a :class:`QueryContext` that carries the unlabeled pool, the current
active-learning-model and label-model predictions, and the query history.
The registry holds the five samplers of the paper's Table 4, one name each:
the ADP sampler the paper proposes and the baselines it is compared against
(passive, uncertainty, LAL, SEU).
"""

from repro.active_learning.base import BaseSampler, QueryContext, prediction_entropy
from repro.active_learning.passive import PassiveSampler
from repro.active_learning.uncertainty import UncertaintySampler
from repro.active_learning.lal import LALSampler
from repro.active_learning.seu import SEUSampler
from repro.active_learning.adp import ADPSampler

__all__ = [
    "BaseSampler",
    "QueryContext",
    "prediction_entropy",
    "PassiveSampler",
    "UncertaintySampler",
    "LALSampler",
    "SEUSampler",
    "ADPSampler",
    "SAMPLER_NAMES",
    "get_sampler",
]

_REGISTRY = {
    "passive": PassiveSampler,
    "uncertainty": UncertaintySampler,
    "lal": LALSampler,
    "seu": SEUSampler,
    "adp": ADPSampler,
}

#: Registry names, in Table 4's order.
SAMPLER_NAMES = tuple(_REGISTRY)


def get_sampler(name: str) -> BaseSampler:
    """Instantiate a sampler by registry name (see Table 4 of the paper).

    ``"adp"`` gets the default trade-off factor; ``ActiveDP`` builds its
    ADP sampler with ``ActiveDPConfig.alpha`` instead.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls()
