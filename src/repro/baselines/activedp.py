"""ActiveDP wrapped in the common pipeline interface.

:func:`bind_activedp` is the one way a run builds its ActiveDP: the paper's
per-kind configuration (alpha = 0.5 text / 0.99 tabular) plus overrides,
seeded by one draw.  Both ActiveDP-backed pipelines and the serving
sessions bind through it.  :class:`ActiveDPPipeline` adds the simulated
user (optionally noisy, for the Table 5 study).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import InteractivePipeline
from repro.core.config import ActiveDPConfig
from repro.core.framework import ActiveDP
from repro.datasets.base import DataSplit
from repro.simulation.label_noise import NoisySimulatedUser
from repro.simulation.simulated_user import SimulatedUser
from repro.utils.rng import RandomState


def bind_activedp(
    data_split: DataSplit, rng: np.random.Generator, config_overrides: dict | None = None
) -> ActiveDP:
    """ActiveDP on *data_split*, seeded by exactly one draw from *rng*."""
    config = ActiveDPConfig.for_dataset_kind(data_split.kind, **(config_overrides or {}))
    seed = int(rng.integers(2**31 - 1))
    return ActiveDP(data_split.train, data_split.valid, config, random_state=seed)


class ActiveDPBackedPipeline(InteractivePipeline):
    """A pipeline whose training labels come from one bound ActiveDP run.

    ``config_overrides`` holds individual :class:`ActiveDPConfig` fields
    replacing per-kind defaults: a plain dict, so engine grids vary single
    knobs (e.g. ``{"glasso_alpha": 0.02}``) through content-hashed
    ``pipeline_kwargs``.
    """

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        config_overrides: dict | None = None,
    ):
        super().__init__(data_split, random_state)
        self.framework = bind_activedp(data_split, self.rng, config_overrides)
        self.config = self.framework.config

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """ConFusion-aggregated training labels (indices, hard labels)."""
        indices, labels, _ = self.framework.generate_labels()
        return indices, labels


class ActiveDPPipeline(ActiveDPBackedPipeline):
    """The paper's framework bound to a dataset split and a simulated user.

    Parameters
    ----------
    noise_rate:
        Label-noise rate for the simulated user (Table 5; default 0).
    """

    name = "activedp"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        config_overrides: dict | None = None,
        noise_rate: float = 0.0,
    ):
        super().__init__(data_split, random_state, config_overrides)
        user_seed = int(self.rng.integers(2**31 - 1))
        if noise_rate > 0.0:
            self.user = NoisySimulatedUser(
                data_split.train, noise_rate=noise_rate, random_state=user_seed
            )
        else:
            self.user = SimulatedUser(data_split.train, random_state=user_seed)

    def step(self):
        """Run one ActiveDP training iteration; returns its real record."""
        record = self.framework.step(self.user)
        self.iteration += 1
        return record
