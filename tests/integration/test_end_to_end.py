"""Integration tests: the complete ActiveDP workflow on text and tabular data.

These tests exercise the headline claims of the paper at miniature scale:
ActiveDP produces labels with both high accuracy and coverage, improves with
more labelling budget, beats the label-model-only ablation, and degrades
gracefully under label noise.
"""

import numpy as np
import pytest

from repro import ActiveDP, ActiveDPConfig
from repro.baselines import ActiveDPPipeline, get_pipeline
from repro.simulation import NoisySimulatedUser, SimulatedUser


class TestActiveDPEndToEndText:
    def test_label_quality_and_downstream_accuracy(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text")
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        user = SimulatedUser(tiny_text_split.train, random_state=0)
        framework.run(user, 30)

        quality = framework.label_quality()
        assert quality["coverage"] > 0.5
        assert quality["accuracy"] > 0.8
        assert framework.evaluate_end_model(tiny_text_split.test) > 0.7

    def test_accuracy_improves_with_budget(self, tiny_text_split):
        config = ActiveDPConfig.for_dataset_kind("text")
        framework = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=0)
        user = SimulatedUser(tiny_text_split.train, random_state=0)

        framework.run(user, 6)
        early = framework.evaluate_end_model(tiny_text_split.test)
        framework.run(user, 24)
        late = framework.evaluate_end_model(tiny_text_split.test)
        # More budget keeps performance high (the tiny corpus saturates early,
        # so we only require no substantial regression and a strong final score).
        assert late >= early - 0.1
        assert late > 0.8

    def test_confusion_beats_label_model_only(self, tiny_text_split):
        """ConFusion aggregation should stay competitive with the LM-only baseline.

        On the miniature fixture both variants saturate, so this only guards
        against ConFusion being badly broken; the paper-shaped comparison runs
        at larger scale in the Table 3 benchmark.
        """
        scores = {}
        for use_confusion in (False, True):
            pipeline = ActiveDPPipeline(
                tiny_text_split,
                random_state=1,
                config_overrides={"use_confusion": use_confusion},
            )
            pipeline.run(25)
            scores[use_confusion] = pipeline.evaluate(1.0).test_accuracy
        assert scores[True] >= scores[False] - 0.15
        assert scores[True] > 0.75


class TestActiveDPEndToEndTabular:
    def test_tabular_workflow(self, tiny_tabular_split):
        config = ActiveDPConfig.for_dataset_kind("tabular")
        framework = ActiveDP(
            tiny_tabular_split.train, tiny_tabular_split.valid, config, random_state=0
        )
        user = SimulatedUser(tiny_tabular_split.train, random_state=0)
        framework.run(user, 25)
        assert framework.label_quality()["accuracy"] > 0.75
        assert framework.evaluate_end_model(tiny_tabular_split.test) > 0.7


class TestLabelNoiseRobustness:
    def test_noise_degrades_but_does_not_break(self, tiny_text_split):
        """Label quality survives moderate noise; pseudo-labels do get corrupted.

        The monotone degradation of downstream accuracy with the noise rate is
        a population-level claim the Table 5 benchmark checks at larger scale;
        on this miniature fixture we assert the mechanism (noisy pseudo-labels)
        and a sane absolute floor.
        """
        config = ActiveDPConfig.for_dataset_kind("text")
        clean = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=2)
        clean.run(SimulatedUser(tiny_text_split.train, random_state=2), 25)
        noisy = ActiveDP(tiny_text_split.train, tiny_text_split.valid, config, random_state=2)
        noisy_user = NoisySimulatedUser(tiny_text_split.train, noise_rate=0.3, random_state=2)
        noisy.run(noisy_user, 25)

        assert clean.pseudo.accuracy(tiny_text_split.train) == 1.0
        assert noisy.pseudo.accuracy(tiny_text_split.train) < 1.0
        assert noisy_user.n_noisy_responses > 0
        assert noisy.label_quality()["accuracy"] > 0.5


class TestFrameworkComparison:
    def test_activedp_competitive_with_uncertainty_sampling(self, tiny_text_split):
        """At a small budget, ActiveDP should not lose badly to pure AL (Figure 3 shape)."""
        results = {}
        for name in ("activedp", "uncertainty"):
            pipeline = get_pipeline(name, tiny_text_split, random_state=3)
            pipeline.run(20)
            results[name] = pipeline.evaluate(1.0).test_accuracy
        assert results["activedp"] >= results["uncertainty"] - 0.1
