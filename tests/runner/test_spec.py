"""Tests for TrialSpec content hashing."""

import pytest

from repro.core.config import ActiveDPConfig
from repro.experiments import EvaluationProtocol
from repro.runner import TrialSpec
from repro.runner.spec import canonical_value, digest

PROTOCOL = EvaluationProtocol(n_iterations=4, eval_every=2, n_seeds=1, dataset_scale=0.15)


def _spec(**overrides):
    params = dict(framework="uncertainty", dataset="youtube", seed=7, protocol=PROTOCOL)
    params.update(overrides)
    return TrialSpec(**params)


class TestKey:
    def test_identical_specs_share_key(self):
        assert _spec().key == _spec().key
        assert _spec() == _spec()
        assert hash(_spec()) == hash(_spec())

    def test_every_input_feeds_the_key(self):
        base = _spec()
        assert base.key != _spec(framework="activedp").key
        assert base.key != _spec(dataset="imdb").key
        assert base.key != _spec(seed=8).key
        assert base.key != _spec(protocol=EvaluationProtocol(n_iterations=5)).key
        assert base.key != _spec(pipeline_kwargs={"noise_rate": 0.1}).key

    def test_group_is_presentation_only(self):
        assert _spec(group="a").key == _spec(group="b").key

    def test_seed_scaleup_keeps_trial_keys(self):
        """Growing a grid from 1 to 5 seeds must not invalidate shared trials."""
        one = EvaluationProtocol(n_iterations=4, eval_every=2, n_seeds=1, dataset_scale=0.15)
        five = EvaluationProtocol(
            n_iterations=4, eval_every=2, n_seeds=5, base_seed=9, dataset_scale=0.15
        )
        assert _spec(protocol=one).key == _spec(protocol=five).key

    def test_equal_configs_share_key(self):
        first = _spec(pipeline_kwargs={"config": ActiveDPConfig(alpha=0.7)})
        second = _spec(pipeline_kwargs={"config": ActiveDPConfig(alpha=0.7)})
        different = _spec(pipeline_kwargs={"config": ActiveDPConfig(alpha=0.8)})
        assert first.key == second.key
        assert first.key != different.key

    def test_kwargs_order_is_irrelevant(self):
        first = _spec(pipeline_kwargs={"a": 1, "b": 2})
        second = _spec(pipeline_kwargs={"b": 2, "a": 1})
        assert first.key == second.key


class TestDefaultOverrides:
    """A ``config_overrides`` entry that restates a default names no new trial."""

    PROTOCOL = EvaluationProtocol(n_iterations=30, eval_every=5)

    def _key(self, dataset="youtube", **pipeline_kwargs):
        return TrialSpec("activedp", dataset, 3, self.PROTOCOL, pipeline_kwargs or None).key

    def test_restated_default_sampler_keeps_the_plain_key(self):
        plain = self._key()
        assert plain.startswith("c9d20cbd")
        assert self._key(config_overrides={"sampler": "adp"}) == plain

    def test_empty_or_absent_overrides_are_one_key(self):
        plain = self._key()
        assert self._key(config_overrides={}) == plain
        assert self._key(config_overrides=None) == plain
        assert TrialSpec("activedp", "youtube", 3, self.PROTOCOL, {}).key == plain

    def test_defaults_follow_the_dataset_kind(self):
        # alpha defaults to 0.5 on text and 0.99 on tabular data.
        assert self._key(config_overrides={"alpha": 0.5}) == self._key()
        assert self._key(config_overrides={"alpha": 0.99}) != self._key()
        assert self._key("census", config_overrides={"alpha": 0.99}) == self._key("census")
        assert self._key("census", config_overrides={"alpha": 0.5}) != self._key("census")

    def test_only_the_default_entries_are_dropped(self):
        mixed = self._key(config_overrides={"sampler": "adp", "glasso_alpha": 0.02})
        assert mixed == self._key(config_overrides={"glasso_alpha": 0.02})
        assert mixed != self._key()

    def test_non_default_override_changes_the_key(self):
        assert self._key(config_overrides={"sampler": "seu"}) != self._key()
        assert self._key(config_overrides={"use_labelpick": False}) != self._key()

    def test_unregistered_dataset_keeps_its_overrides(self):
        plain = self._key("no-such-dataset")
        assert self._key("no-such-dataset", config_overrides={"sampler": "adp"}) != plain

    def test_the_pipeline_still_receives_the_raw_kwargs(self):
        kwargs = {"config_overrides": {"sampler": "adp"}}
        spec = TrialSpec("activedp", "youtube", 3, self.PROTOCOL, kwargs)
        assert spec.key == self._key()
        assert spec.pipeline_kwargs == {"config_overrides": {"sampler": "adp"}}


class TestValidation:
    @pytest.mark.parametrize(
        "overrides", [{"framework": ""}, {"dataset": ""}, {"seed": -1}]
    )
    def test_invalid_specs_raise(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)


class TestCanonicalValue:
    def test_dataclasses_expand_by_field(self):
        encoded = canonical_value(ActiveDPConfig(alpha=0.25))
        assert encoded["__type__"] == "ActiveDPConfig"
        assert encoded["alpha"] == 0.25

    def test_digest_is_stable_for_nested_structures(self):
        payload = {"list": [1, (2, 3)], "none": None, "flag": True}
        assert digest(payload) == digest({"flag": True, "none": None, "list": [1, [2, 3]]})

    def test_large_arrays_do_not_collide(self):
        """Arrays with elided reprs must hash by content, not by repr."""
        import numpy as np

        first = np.zeros(1500)
        second = first.copy()
        second[750] = 1.0  # differs only in the repr-elided middle
        key_a = _spec(pipeline_kwargs={"prior": first}).key
        key_b = _spec(pipeline_kwargs={"prior": second}).key
        assert key_a != key_b

    def test_identity_repr_objects_are_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            _spec(pipeline_kwargs={"thing": Opaque()}).key

    def test_sets_hash_order_independently(self, subprocess_env):
        """Set values must canonicalise identically across interpreter runs.

        Set iteration order is hash-randomised, so the digest is computed
        under several PYTHONHASHSEEDs in fresh interpreters.
        """
        import subprocess
        import sys

        code = (
            "from repro.runner.spec import digest;"
            "print(digest({'tags': {'alpha', 'beta', 'gamma', 1, 2}}))"
        )
        keys = set()
        for seed in (0, 1, 7):
            env = {**subprocess_env, "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            keys.add(proc.stdout.strip())
        assert len(keys) == 1
        # Sets and lists of the same elements stay distinct inputs.
        assert digest({"x": {1, 2}}) != digest({"x": [1, 2]})

    def test_reserved_sentinel_keys_are_rejected(self):
        """Dicts carrying the encoding sentinels must raise, not collide.

        Otherwise ``{'x': {'a'}}`` and ``{'x': {'__set__': ['a']}}`` would
        share one content key (same for ``__type__`` vs dataclasses).
        """
        with pytest.raises(TypeError, match="reserved"):
            canonical_value({"x": {"__set__": ["a"]}})
        with pytest.raises(TypeError, match="reserved"):
            canonical_value({"x": {"__type__": "ActiveDPConfig"}})

    def test_colliding_stringified_keys_are_rejected(self):
        """Keys that stringify identically must raise, not silently merge.

        Merging would give two distinct kwargs dicts one content key and
        serve one trial's cached result for the other.
        """
        with pytest.raises(TypeError, match="stringify"):
            canonical_value({1: "a", "1": "b"})
