"""JSON wire schemas: label requests in, canonical label payloads out.

A label request names a dataset, an LF list (:mod:`repro.labeling.wire`
dicts) and a few protocol knobs; :func:`parse_label_request` canonicalises
it into an ordinary content-hashed :class:`~repro.runner.spec.TrialSpec`
for the ``lfset`` replay pipeline.  Everything the worker fleet needs is in
the spec, and everything the client gets back is derived from the stored
:class:`~repro.core.results.RunHistory` by :func:`label_payload` — so a
service response is byte-identical to what a direct engine run of the same
spec would produce (:func:`canonical_json` pins the encoding).
"""

from __future__ import annotations

import json

from repro.core.config import ActiveDPConfig
from repro.core.results import RunHistory
from repro.experiments.protocol import EvaluationProtocol
from repro.labeling.wire import WireFormatError, canonical_wire_lfs
from repro.runner.spec import TrialSpec, key_of


class RequestError(ValueError):
    """A request body the service must reject (rendered as HTTP 400)."""


def json_int(body: dict, name: str, default: int) -> int:
    """``body[name]`` (or *default*) if it is a JSON integer.

    Shared by ``POST /label`` and ``POST /sessions``.  A bool, float or
    string is a :class:`RequestError`, not coerced: ``1.9``, ``true`` and
    ``"1"`` would otherwise all name the trial of ``1``.
    """
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"'{name}' must be a JSON integer, got {value!r}")
    return value


def json_number(body: dict, name: str, default: float) -> float:
    """``body[name]`` (or *default*) as a float if it is a JSON number.

    Shared by ``POST /label`` and ``POST /sessions``.  A bool or a string
    is a :class:`RequestError`, not coerced: ``"0.5"`` would otherwise name
    the trial of ``0.5``, and ``true`` the trial of ``1.0``.  So is an
    integer too large for a float.
    """
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"'{name}' must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as error:
        raise RequestError(f"'{name}' is out of range: {error}") from error


def check_config_overrides(config_overrides) -> None:
    """Reject ``config_overrides`` that do not make a valid ActiveDP config.

    Shared by ``POST /label`` and ``POST /sessions``, so an unknown key (a
    typo, or a field the config no longer has) or a value the config
    rejects (an unregistered sampler, an ``alpha`` outside ``[0, 1]``) is a
    400 at the door rather than a job failure on a worker.
    """
    if config_overrides is None:
        return
    if not isinstance(config_overrides, dict):
        raise RequestError("'config_overrides' must be an object when given")
    try:
        ActiveDPConfig(**config_overrides)
    except (TypeError, ValueError) as error:
        raise RequestError(f"invalid config_overrides: {error}") from error


def parse_label_request(body: dict) -> TrialSpec:
    """Canonicalise a label-request body into a content-hashed trial spec.

    Required fields: ``dataset`` (registry name) and ``lfs`` (non-empty
    list of wire-schema LF dicts).  Optional: ``seed`` (JSON integer,
    default 0), ``scale`` (JSON number, dataset scale, default 1.0),
    ``eval_every`` (JSON integer of at least 1, default: one evaluation at
    the end), ``end_model_C`` (JSON number, default 1.0) and
    ``config_overrides`` (plain-JSON ActiveDP config
    fields that must make a valid config).  Equivalent
    requests normalise to identical specs and therefore share one content
    key — the dedup/cache unit of the whole serving path.  Dataset names
    are case-insensitive in the registry, so they are lower-cased here:
    ``"YouTube"`` and ``"youtube"`` are one trial.

    Raises :class:`RequestError` on anything malformed; the trial itself is
    *not* validated against the dataset registry here (an unknown dataset
    fails on the worker and surfaces as a job failure).
    """
    if not isinstance(body, dict):
        raise RequestError(f"request body must be a JSON object, got {type(body).__name__}")
    dataset = body.get("dataset")
    if not dataset or not isinstance(dataset, str):
        raise RequestError("'dataset' must be a non-empty dataset name")
    lfs = body.get("lfs")
    if not isinstance(lfs, list) or not lfs:
        raise RequestError("'lfs' must be a non-empty list of LF objects")
    try:
        canonical_lfs = canonical_wire_lfs(lfs)
    except WireFormatError as error:
        raise RequestError(str(error)) from error
    seed = json_int(body, "seed", 0)
    eval_every = json_int(body, "eval_every", len(canonical_lfs))
    if eval_every < 1:
        raise RequestError(f"'eval_every' must be at least 1, got {eval_every}")
    scale = json_number(body, "scale", 1.0)
    end_model_C = json_number(body, "end_model_C", 1.0)
    config_overrides = body.get("config_overrides")
    check_config_overrides(config_overrides)
    known = {
        "dataset", "lfs", "seed", "scale", "eval_every", "end_model_C",
        "config_overrides",
    }
    unknown = set(body) - known
    if unknown:
        raise RequestError(f"unknown request field(s): {sorted(unknown)}")
    try:
        protocol = EvaluationProtocol(
            n_iterations=len(canonical_lfs),
            eval_every=min(eval_every, len(canonical_lfs)),
            n_seeds=1,
            dataset_scale=scale,
            end_model_C=end_model_C,
        )
        pipeline_kwargs = {"lfs": canonical_lfs, "end_model_C": end_model_C}
        if config_overrides:
            pipeline_kwargs["config_overrides"] = config_overrides
        return TrialSpec(
            framework="lfset",
            dataset=dataset.lower(),
            seed=seed,
            protocol=protocol,
            pipeline_kwargs=pipeline_kwargs,
        )
    except ValueError as error:
        raise RequestError(str(error)) from error


def label_payload(spec: TrialSpec | str, history: RunHistory) -> dict:
    """The canonical response payload for a completed label request.

    Deterministically derived from the content key of *spec* (a spec or a
    raw key) and its stored history, which records the framework, dataset
    and seed — so a poll by raw key, the warm path and a direct
    :func:`~repro.runner.executor.run_trial` produce identical payloads,
    which the end-to-end suite pins byte-for-byte via
    :func:`canonical_json`.
    """
    return {
        "key": key_of(spec),
        "framework": history.framework,
        "dataset": history.dataset,
        "seed": history.seed,
        "status": "done",
        "n_iterations": history.n_iterations,
        "evaluation_points": [
            [iteration, accuracy] for iteration, accuracy in history.evaluation_points()
        ],
        "average_test_accuracy": history.average_test_accuracy(),
        "final_test_accuracy": history.final_test_accuracy(),
        "artifacts": history.artifacts,
    }


def canonical_json(payload) -> bytes:
    """The service's one JSON encoding: sorted keys, compact separators.

    Responses rendered through this are stable across processes and
    platforms, so byte-identity assertions (cold vs warm, served vs direct
    engine run) are meaningful.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
