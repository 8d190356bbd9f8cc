"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry point of each layer (a module-level
function, or a method on the concrete class the workloads use) and records
one span per call: name, start, end, the span that caused it and the trace
id it belongs to.  Spans nest per thread, so a layer's *self time* is its
span's duration minus the time its child spans cover.  Hooks attached to
some entry points also count work at the same boundary (glasso variables
and sweeps, EM iterations, cache hits, useful lease batches).

Nothing here is imported by the program: :meth:`Tracer.install` patches the
entry points and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
import threading
import time


class Tracer:
    """Per-thread span stacks, aggregated into per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, parent, trace, name, start, end, self)
        self.counts: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        self.events: dict[str, dict[str, float]] = collections.defaultdict(dict)
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, trace=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if trace is None and parent is not None:
            trace = parent[1]
        frame = [span_id, trace, 0.0]  # id, trace, time covered by children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            record = (
                span_id,
                parent[0] if parent is not None else None,
                trace,
                name,
                start,
                end,
                duration - frame[2],
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def event(self, kind: str, key: str, when: float | None = None) -> None:
        """First time *kind* happened for trace *key* (enqueue, lease, put)."""
        with self._lock:
            self.events[kind].setdefault(key, time.perf_counter() if when is None else when)

    # -- patching ----------------------------------------------------------

    def _spanned(self, name, fn, hook, trace_of):
        """*fn* wrapped in a span; *hook* sees each call's arguments and result."""

        def wrapper(*args, **kwargs):
            trace = trace_of(args, kwargs) if trace_of else None
            result = self.call(name, fn, args, kwargs, trace)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_function(self, module_name, attr, name, hook=None, trace_of=None, only=None):
        """Span every call of a module-level function, wherever it is bound.

        ``from module import attr`` copies the function into the importing
        module, so every ``repro`` module holding the original (or only the
        modules named in *only*) gets the wrapper.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._spanned(name, original, hook, trace_of)
        for bound_name, module in list(sys.modules.items()):
            if not bound_name.startswith("repro") or module is None:
                continue
            if only is not None and bound_name not in only:
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def wrap_method(self, cls, attr, name, hook=None, trace_of=None):
        """Span every call of ``cls.attr`` (plain method or classmethod)."""
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        wrapper = self._spanned(name, raw.__func__ if is_classmethod else raw, hook, trace_of)
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and inclusive durations."""
        out: dict[str, dict] = collections.defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "durations": []}
        )
        with self._lock:
            spans = list(self.spans)
        for _, _, _, name, start, end, self_time in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_time
            entry["durations"].append(end - start)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (id, parent, trace, name, times)."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, start, end, self_time in spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace, "name": name,
                    "start": start, "end": end, "self": self_time,
                }, sort_keys=True) + "\n")


# -- the layer map ----------------------------------------------------------


def _glasso_hook(tracer, args, kwargs, result):
    tracer.maximum("graphical.glasso.vars_max", result.precision.shape[0])
    tracer.count("graphical.glasso.sweeps", result.n_iter)
    tracer.count("graphical.glasso.warm", int(bool(result.warm_started)))


def _label_model_hook(tracer, args, kwargs, result):
    model = args[0]
    tracer.count("label_models.fit.em_iterations", int(getattr(model, "n_iter_", 0) or 0))
    tracer.count("label_models.fit.warm", int(bool(getattr(model, "warm_started_", False))))


def _get_hook(tracer, args, kwargs, result):
    tracer.count("runner.results.get.hits", int(result is not None))


def _key_of(spec) -> str:
    return spec if isinstance(spec, str) else spec.key


def _put_hook(tracer, args, kwargs, result):
    tracer.event("put", _key_of(args[1]))


def _enqueue_hook(tracer, args, kwargs, result):
    tracer.event("enqueue", _key_of(args[1]))


def _lease_hook(tracer, args, kwargs, result):
    tracer.count("runner.brokers.lease.useful", int(bool(result)))
    now = time.perf_counter()
    for lease in result:
        tracer.event("lease", lease.key, now)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry point of every layer the workloads exercise."""
    import repro.runner.worker  # noqa: F401 - bind run_trial before rebinding
    import repro.serving.service  # noqa: F401
    from repro.active_learning.base import BaseSampler
    import repro.active_learning as active_learning
    from repro.core.confusion import ConFusion
    from repro.core.labelpick import LabelPick
    from repro.label_models.base import BaseLabelModel
    import repro.label_models as label_models
    from repro.labeling.incremental import IncrementalLabelMatrix
    from repro.models.logistic_regression import LogisticRegression
    from repro.runner.brokers.spool import SpoolBroker
    from repro.runner.results.pickle_store import ResultCache
    from repro.serving.sessions import LabelingSession
    from repro.simulation.simulated_user import SimulatedUser

    tracer.wrap_function("repro.datasets.registry", "load_dataset", "datasets.load")
    tracer.wrap_function(
        "repro.graphical.glasso", "graphical_lasso", "graphical.glasso", hook=_glasso_hook
    )
    tracer.wrap_function("repro.serving.schemas", "parse_label_request", "serving.parse")
    # Only the worker's binding: a trial the benchmark runs itself is the
    # job being timed, while a worker's run_trial is the served cold path.
    tracer.wrap_function(
        "repro.runner.executor", "run_trial", "serving.execute",
        trace_of=lambda args, kwargs: args[0].key, only=("repro.runner.worker",),
    )

    tracer.wrap_method(SimulatedUser, "design_lf", "simulation.design_lf")
    for value in vars(active_learning).values():
        if isinstance(value, type) and issubclass(value, BaseSampler) and "select" in value.__dict__:
            if value is not BaseSampler:
                tracer.wrap_method(value, "select", "active_learning.select")
    tracer.wrap_method(LabelPick, "select", "core.labelpick")
    tracer.wrap_method(ConFusion, "tune_threshold", "core.confusion.tune")
    for value in vars(label_models).values():
        if isinstance(value, type) and issubclass(value, BaseLabelModel) and "fit" in value.__dict__:
            if value is not BaseLabelModel:
                tracer.wrap_method(value, "fit", "label_models.fit", hook=_label_model_hook)
    tracer.wrap_method(LogisticRegression, "fit", "models.lr_fit")
    tracer.wrap_method(IncrementalLabelMatrix, "append", "labeling.append")
    tracer.wrap_method(ResultCache, "get", "runner.results.get", hook=_get_hook)
    tracer.wrap_method(ResultCache, "put", "runner.results.put", hook=_put_hook)
    tracer.wrap_method(SpoolBroker, "enqueue", "runner.brokers.enqueue", hook=_enqueue_hook)
    tracer.wrap_method(SpoolBroker, "lease_batch", "runner.brokers.lease", hook=_lease_hook)
    tracer.wrap_method(LabelingSession, "add_lf", "sessions.add_lf")
    tracer.wrap_method(LabelingSession, "label_payload", "sessions.label_payload")
    tracer.wrap_method(LabelingSession, "resume", "sessions.resume")
    return tracer


#: Every span the layer map records, in report order.
SPAN_LAYERS = (
    "datasets.load",
    "simulation.design_lf",
    "active_learning.select",
    "core.labelpick",
    "graphical.glasso",
    "label_models.fit",
    "models.lr_fit",
    "labeling.append",
    "core.confusion.tune",
    "serving.parse",
    "serving.execute",
    "runner.results.get",
    "runner.results.put",
    "runner.brokers.enqueue",
    "runner.brokers.lease",
    "sessions.add_lf",
    "sessions.resume",
    "sessions.label_payload",
)
