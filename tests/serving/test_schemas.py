"""Unit tests for the wire schemas and the admission controller."""

from __future__ import annotations

import json

import pytest

from repro.runner import run_trial
from repro.serving import AdmissionController, RequestError
from repro.serving.schemas import canonical_json, label_payload, parse_label_request

LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "threshold", "feature": 3, "value": 0.5, "op": ">=", "label": 0},
]

# Executed (not just parsed) below, so stick to text-native keyword LFs.
KEYWORD_LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
]


class TestParseLabelRequest:
    def test_equivalent_requests_share_one_content_key(self):
        base = parse_label_request({"dataset": "youtube", "lfs": LFS})
        explicit = parse_label_request(
            {
                "dataset": "youtube",
                "lfs": list(reversed(list(reversed(LFS)))),
                "seed": 0,
                "scale": 1.0,
                "end_model_C": 1.0,
                "eval_every": len(LFS),
            }
        )
        assert base.key == explicit.key
        # A JSON integer is a JSON number: `1` and `1.0` are one trial.
        integral = parse_label_request(
            {"dataset": "youtube", "lfs": LFS, "scale": 1, "end_model_C": 1}
        )
        assert integral.key == base.key

    def test_dataset_name_case_is_one_trial(self):
        # The registry resolves names case-insensitively, so the spellings
        # must share one content key (and one spool shard) too.
        lower = parse_label_request({"dataset": "youtube", "lfs": LFS})
        mixed = parse_label_request({"dataset": "YouTube", "lfs": LFS})
        assert mixed == lower
        assert mixed.key == lower.key
        assert mixed.dataset == "youtube"

    def test_restated_default_config_is_one_trial(self):
        # A served request that restates the default sampler must hit the
        # warm cache of the same request sent without it.
        plain = parse_label_request({"dataset": "youtube", "lfs": LFS})
        restated = parse_label_request(
            {"dataset": "youtube", "lfs": LFS, "config_overrides": {"sampler": "adp"}}
        )
        assert restated.key == plain.key

    def test_distinct_knobs_get_distinct_keys(self):
        base = parse_label_request({"dataset": "youtube", "lfs": LFS})
        for variation in (
            {"seed": 1},
            {"scale": 0.5},
            {"end_model_C": 2.0},
            {"eval_every": 1},
            {"lfs": LFS[:1]},
            {"config_overrides": {"glasso_alpha": 0.02}},
        ):
            varied = parse_label_request({"dataset": "youtube", "lfs": LFS, **variation})
            assert varied.key != base.key, variation

    def test_spec_shape(self):
        spec = parse_label_request({"dataset": "youtube", "lfs": LFS, "seed": 3})
        assert spec.framework == "lfset"
        assert spec.dataset == "youtube"
        assert spec.seed == 3
        assert spec.protocol.n_iterations == len(LFS)
        assert spec.protocol.n_seeds == 1
        assert spec.pipeline_kwargs["lfs"] == [
            {"type": "keyword", "keyword": "check", "label": 1},
            {"type": "threshold", "feature": 3, "value": 0.5, "op": ">=", "label": 0},
        ]

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {},
            {"dataset": "youtube"},
            {"dataset": "", "lfs": LFS},
            {"dataset": "youtube", "lfs": []},
            {"dataset": "youtube", "lfs": "keyword"},
            {"dataset": "youtube", "lfs": [{"type": "nope"}]},
            {"dataset": "youtube", "lfs": LFS, "seed": "many"},
            {"dataset": "youtube", "lfs": LFS, "seed": "1"},
            {"dataset": "youtube", "lfs": LFS, "seed": 1.9},
            {"dataset": "youtube", "lfs": LFS, "seed": True},
            {"dataset": "youtube", "lfs": LFS, "eval_every": 1.0},
            {"dataset": "youtube", "lfs": LFS, "config_overrides": {"alpha": 7}},
            {"dataset": "youtube", "lfs": LFS, "config_overrides": {"sampler": "nope"}},
            {"dataset": "youtube", "lfs": LFS,
             "config_overrides": {"sampler_kwargs": {"beta": -1}}},
            {"dataset": "youtube", "lfs": LFS, "config_overrides": [1]},
            {"dataset": "youtube", "lfs": LFS, "config_overrides": {"backend": "numpy"}},
            {"dataset": "youtube", "lfs": LFS, "surprise": True},
        ],
    )
    def test_rejects_malformed_bodies(self, body):
        with pytest.raises(RequestError):
            parse_label_request(body)


class TestLabelPayload:
    def test_payload_is_canonical_and_json_clean(self):
        spec = parse_label_request(
            {"dataset": "youtube", "lfs": KEYWORD_LFS, "scale": 0.15}
        )
        history = run_trial(spec)
        payload = label_payload(spec, history)
        assert payload["key"] == spec.key
        assert payload["status"] == "done"
        assert payload["n_iterations"] == len(KEYWORD_LFS)
        assert payload["artifacts"]["labels"]["values"]
        # canonical_json round-trips and is stable across encodings.
        encoded = canonical_json(payload)
        assert json.loads(encoded) == json.loads(canonical_json(json.loads(encoded)))

    def test_identical_specs_render_identical_bytes(self):
        spec = parse_label_request(
            {"dataset": "youtube", "lfs": KEYWORD_LFS, "scale": 0.15}
        )
        first = canonical_json(label_payload(spec, run_trial(spec)))
        second = canonical_json(label_payload(spec, run_trial(spec)))
        assert first == second


class TestAdmissionController:
    def test_acquire_release_and_peak(self):
        admission = AdmissionController(max_inflight=2, retry_after=0.5)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()
        assert admission.inflight == 2
        admission.release()
        assert admission.try_acquire()
        snapshot = admission.snapshot()
        assert snapshot["peak_inflight"] == 2
        assert snapshot["admitted"] == 3
        assert snapshot["rejected"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["retry_after"] == 0.5

    def test_release_without_acquire_raises(self):
        admission = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError):
            admission.release()

    @pytest.mark.parametrize(
        "kwargs", [{"max_inflight": 0}, {"retry_after": 0.0}, {"retry_after": -1}]
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)
