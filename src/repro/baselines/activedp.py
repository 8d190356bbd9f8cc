"""ActiveDP wrapped in the common pipeline interface.

The wrapper owns the simulated user (optionally noisy, for the Table 5
study), builds the paper's default configuration for the dataset kind
(alpha = 0.5 text / 0.99 tabular) and forwards each ``step()`` to the core
framework.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.baselines.base import InteractivePipeline
from repro.core.config import ActiveDPConfig
from repro.core.framework import ActiveDP
from repro.datasets.base import DataSplit
from repro.simulation.label_noise import NoisySimulatedUser
from repro.simulation.simulated_user import SimulatedUser
from repro.utils.rng import RandomState


class ActiveDPPipeline(InteractivePipeline):
    """The paper's framework bound to a dataset split and a simulated user.

    Parameters
    ----------
    data_split:
        Benchmark dataset.
    random_state:
        Seed shared by the sampler and the simulated user.
    config:
        Optional :class:`ActiveDPConfig` override (defaults to the paper's
        per-kind configuration).
    config_overrides:
        Individual :class:`ActiveDPConfig` fields to replace on top of the
        per-kind defaults (or on top of *config* when both are given).  A
        plain dict, so engine grids can vary single knobs (e.g.
        ``{"glasso_alpha": 0.02}``) through content-hashed
        ``pipeline_kwargs`` without spelling out a whole config.
    noise_rate:
        Label-noise rate for the simulated user (Table 5; default 0).
    accuracy_threshold:
        Candidate-LF accuracy threshold of the simulated user (paper: 0.6).
    """

    name = "activedp"

    def __init__(
        self,
        data_split: DataSplit,
        random_state: RandomState = None,
        config: ActiveDPConfig | None = None,
        config_overrides: dict | None = None,
        noise_rate: float = 0.0,
        accuracy_threshold: float = 0.6,
    ):
        super().__init__(data_split, random_state)
        self.config = config or ActiveDPConfig.for_dataset_kind(data_split.kind)
        if config_overrides:
            self.config = dataclasses.replace(self.config, **config_overrides)
        seed = int(self.rng.integers(2**31 - 1))
        self.framework = ActiveDP(
            data_split.train, data_split.valid, self.config, random_state=seed
        )
        user_seed = int(self.rng.integers(2**31 - 1))
        if noise_rate > 0.0:
            self.user = NoisySimulatedUser(
                data_split.train,
                noise_rate=noise_rate,
                accuracy_threshold=accuracy_threshold,
                random_state=user_seed,
            )
        else:
            self.user = SimulatedUser(
                data_split.train,
                accuracy_threshold=accuracy_threshold,
                random_state=user_seed,
            )

    def step(self):
        """Run one ActiveDP training iteration; returns its real record."""
        record = self.framework.step(self.user)
        self.iteration += 1
        return record

    def generate_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """ConFusion-aggregated training labels (indices, hard labels)."""
        indices, labels, _ = self.framework.generate_labels()
        return indices, labels
