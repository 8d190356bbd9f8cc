"""Tests for ActiveDPConfig."""

import pytest

from repro.core import ActiveDPConfig


class TestActiveDPConfig:
    def test_defaults_enable_both_techniques(self):
        config = ActiveDPConfig()
        assert config.use_labelpick and config.use_confusion
        assert config.sampler == "adp"

    def test_for_text_uses_alpha_half(self):
        assert ActiveDPConfig.for_dataset_kind("text").alpha == 0.5

    def test_for_tabular_uses_alpha_099(self):
        assert ActiveDPConfig.for_dataset_kind("tabular").alpha == 0.99

    def test_for_dataset_kind_accepts_overrides(self):
        config = ActiveDPConfig.for_dataset_kind("text", use_confusion=False, sampler="passive")
        assert not config.use_confusion
        assert config.sampler == "passive"
        assert config.alpha == 0.5

    def test_invalid_kind_raises(self):
        with pytest.raises(ValueError):
            ActiveDPConfig.for_dataset_kind("images")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.5},
            {"glasso_alpha": -0.1},
            {"al_model_C": 0.0},
            {"min_labelpick_queries": 1},
            {"sampler": "nope"},
            {"sampler": "us"},
            {"sampler": "qbc"},
            {"sampler": "ADP"},
            {"sampler": 7},
            {"label_model": "snorkel"},
            {"label_model": "MeTaL"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ActiveDPConfig(**kwargs)
