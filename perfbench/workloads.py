"""The benchmark's workloads: seeded inputs, timed loops and output checks.

Each workload returns an :class:`Outcome`: the metrics it measured, how
many operations it attempted and how many failed (an error, a refusal, a
timeout or a failed correctness check), plus shape-guard problems that mean
the workload no longer exercises what it was chosen for.

``trial-labelpick`` and ``trial-wide`` run whole ``activedp`` trials through
:func:`repro.runner.executor.run_trial`.  ``serve-mixed`` drives an
in-process labeling service over HTTP with two closed-loop clients that
take turns from one thread.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

from spans import SPAN_LAYERS, Tracer, install

#: The serving stack is set up this many times per run; ``setup_s`` takes
#: the median.
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: What the speed probe takes, at :data:`REFERENCE_STEPS` steps, when this
#: benchmark's 2-core machine runs at full speed.  It only sets the scale:
#: normalised times read as seconds there.
REFERENCE_S = 0.3
REFERENCE_STEPS = 60000


class SpeedProbe:
    """Times a fixed reference computation to track the machine's speed.

    On a shared machine the CPU can run at two thirds of its speed for
    minutes at a time, which moves every wall-clock figure of a run
    together.  The probe runs a fixed mix of small numpy products and
    interpreter work, like the program's own, next to the timed work;
    dividing a wall time by the probe's slowdown (probe time over
    :data:`REFERENCE_S`) normalises it to full speed.  The raw times and
    the slowdown are reported beside the normalised ones.  A probe of
    fewer *steps* is shorter, to sample often between timed operations.
    """

    def __init__(self, steps: int = REFERENCE_STEPS):
        self.steps = steps
        self.samples: list[float] = []

    def sample(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((64, 64)) / 8.0
        vector = np.ones(64)
        table: dict[int, float] = {}
        start = time.perf_counter()
        for step in range(self.steps):
            vector = matrix @ vector
            vector /= np.abs(vector).max()
            table[step % 97] = table.get(step % 97, 0.0) + float(vector[step % 64])
        self.samples.append(time.perf_counter() - start)

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Median probe time of samples ``first..last``, over the reference."""
        window = self.samples[first:None if last is None else last + 1]
        return statistics.median(window) / (REFERENCE_S * self.steps / REFERENCE_STEPS)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = dataclasses.field(default_factory=dict)  # name -> (value, unit)
    samples: dict = dataclasses.field(default_factory=dict)  # name -> sample count
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    drift: list = dataclasses.field(default_factory=list)
    layer_table: list = dataclasses.field(default_factory=list)
    raw: dict = dataclasses.field(default_factory=dict)  # un-normalised times, for the report

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


# -- per-layer metrics --------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(outcome: Outcome, tracer: Tracer, wall_s: float) -> None:
    """Per-layer self time, calls and share of *wall_s*, plus layer counters."""
    totals = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    for layer in SPAN_LAYERS:
        entry = totals.get(layer, empty)
        outcome.put(f"{layer}_s", entry["self_s"], "s")
        outcome.put(f"{layer}.calls", entry["calls"], "count")
        outcome.put(f"{layer}.share", _ratio(entry["self_s"], wall_s), "ratio")
        outcome.layer_table.append((layer, entry["self_s"], entry["calls"]))
    counts, maxima = tracer.counts, tracer.maxima
    glasso = totals.get("graphical.glasso", empty)
    labelpick = totals.get("core.labelpick", empty)
    fits = totals.get("label_models.fit", empty)
    gets = totals.get("runner.results.get", empty)
    leases = totals.get("runner.brokers.lease", empty)
    outcome.put("graphical.glasso.vars_max", maxima.get("graphical.glasso.vars_max", 0), "count")
    outcome.put("graphical.glasso.sweeps", counts["graphical.glasso.sweeps"], "count")
    outcome.put(
        "graphical.glasso.warm_rate",
        _ratio(counts["graphical.glasso.warm"], glasso["calls"]), "ratio",
    )
    # Structure learning is the glasso call inside LabelPick: its inclusive
    # time over LabelPick's inclusive time.
    outcome.put(
        "core.labelpick.structure_share",
        _ratio(sum(glasso["durations"]), sum(labelpick["durations"])), "ratio",
    )
    outcome.put("label_models.fit.em_iterations", counts["label_models.fit.em_iterations"], "count")
    outcome.put(
        "label_models.fit.warm_rate",
        _ratio(counts["label_models.fit.warm"], fits["calls"]), "ratio",
    )
    outcome.put(
        "runner.results.get.hit_ratio",
        _ratio(counts["runner.results.get.hits"], gets["calls"]), "ratio",
    )
    outcome.put(
        "runner.brokers.lease.useful_ratio",
        _ratio(counts["runner.brokers.lease.useful"], leases["calls"]), "ratio",
    )
    for layer, metric in (
        ("sessions.add_lf", "sessions.add_lf_ms"),
        ("sessions.resume", "sessions.resume_ms"),
        ("sessions.label_payload", "sessions.label_payload_ms"),
        ("serving.execute", "serving.execute_ms"),
    ):
        durations = totals.get(layer, empty)["durations"]
        outcome.put(metric, _median_ms(durations), "ms", len(durations))
    outcome.put("trace.wall_s", wall_s, "s")


SERVING_ONLY_METRICS = (
    ("serving.queue_wait_ms", "ms"),
    ("serving.detect_wait_ms", "ms"),
    ("serving.cold_p90_ms", "ms"),
    ("serving.warm_p50_ms", "ms"),
    ("serving.warm_p90_ms", "ms"),
    ("serving.session_lf_p50_ms", "ms"),
    ("serving.session_lf_p90_ms", "ms"),
    ("serving.throughput_per_s", "1/s"),
    ("sessions.resumes", "count"),
    ("sessions.evictions", "count"),
    ("serving.admission_rejected", "count"),
    ("serving.inflight_after", "count"),
    ("serving.pending_after", "count"),
)


def serving_layer_defaults(outcome: Outcome) -> None:
    """Serving-only layer metrics, zero on workloads that bypass serving."""
    for name, unit in SERVING_ONLY_METRICS:
        outcome.metrics.setdefault(name, (0.0, unit))




# -- trial workloads ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrialShape:
    """One ``activedp`` trial protocol and how many trials a run must make.

    A run makes at least ``min_trials`` trials, and more while the next one
    still fits in ``--seconds``.  The accuracy metrics average the first
    ``min_trials`` only, so they are fixed by the seed.
    """

    dataset: str
    scale: float
    iterations: int
    eval_every: int
    min_trials: int


# Trials are cut short enough that several fit in one run: averaging over
# several seeded corpora is what keeps a run's figures steady across seeds.
TRIAL_SHAPES = {
    "trial-labelpick": TrialShape("youtube", 1.0, 70, 10, 2),
    "trial-wide": TrialShape("imdb", 6.0, 30, 5, 5),
}
TINY_TRIAL_SHAPES = {
    "trial-labelpick": TrialShape("youtube", 0.3, 12, 4, 1),
    "trial-wide": TrialShape("imdb", 0.4, 8, 4, 1),
}


def _trial_spec(shape: TrialShape, seed: int):
    """One seeded trial (its corpus is generated inside ``run_trial``)."""
    from repro.experiments.protocol import EvaluationProtocol
    from repro.runner.spec import TrialSpec

    protocol = EvaluationProtocol(
        n_iterations=shape.iterations,
        eval_every=shape.eval_every,
        n_seeds=1,
        dataset_scale=shape.scale,
    )
    return TrialSpec("activedp", shape.dataset, seed, protocol)


def _train_rows(shape: TrialShape, seed: int) -> int:
    from repro.datasets import load_dataset

    return len(load_dataset(shape.dataset, scale=shape.scale, random_state=seed).train)


def _check_history(outcome: Outcome, spec, history) -> None:
    """Output invariants of one finished trial."""
    protocol = spec.protocol
    records = history.records
    label = f"trial seed {spec.seed}"
    if len(records) != protocol.n_iterations:
        outcome.fail(f"{label}: {len(records)} records for {protocol.n_iterations} iterations")
        return
    points = history.evaluation_points()
    if [it for it, _ in points] != protocol.evaluation_iterations():
        outcome.fail(f"{label}: evaluation points {points} off the protocol")
        return
    accuracies = [acc for _, acc in points]
    if not all(0.0 < acc <= 1.0 for acc in accuracies):
        outcome.fail(f"{label}: test accuracy outside (0, 1]: {accuracies}")
    if not math.isclose(history.average_test_accuracy(), statistics.fmean(accuracies)):
        outcome.fail(f"{label}: average test accuracy is not the curve's mean")
    final = records[-1]
    for field in ("label_accuracy", "label_coverage"):
        value = getattr(final, field)
        if value is None or not 0.0 < value <= 1.0:
            outcome.fail(f"{label}: final {field} {value!r} outside (0, 1]")
    previous = 0
    for record in records:
        if record.n_lfs < previous or record.n_selected_lfs > record.n_lfs:
            outcome.fail(f"{label}: LF counts inconsistent at iteration {record.iteration}")
            break
        previous = record.n_lfs


def _headline(history) -> tuple[float, float, float]:
    final = history.records[-1]
    return history.average_test_accuracy(), final.label_accuracy, final.label_coverage


def run_trial_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                       import_s: float, work_dir: Path) -> Outcome:
    """``trial-*``: whole seeded ``activedp`` trials, timed one by one.

    Trial *k* of a run is seeded ``seed * 64 + k``.  A traced run makes one
    trial untraced and the same trial again traced.
    """
    from repro.runner.executor import run_trial

    outcome = Outcome()
    shape = (TINY_TRIAL_SHAPES if tiny else TRIAL_SHAPES)[name]

    # A trial's inputs are its spec: building one is all the set-up there is
    # beyond the import, since run_trial generates the corpus (inside job_s).
    start = time.perf_counter()
    _trial_spec(shape, seed * 64)
    spec_s = time.perf_counter() - start

    # Probe before the first trial and after each; trial k is normalised by
    # the two probes around it.
    probe = SpeedProbe()
    probe.sample()
    walls, histories = [], []
    run_start = time.perf_counter()
    while len(walls) < (1 if trace else shape.min_trials) or (
        not trace
        and time.perf_counter() - run_start + statistics.fmean(walls) <= seconds
    ):
        spec = _trial_spec(shape, seed * 64 + len(walls))
        outcome.attempted += 1
        start = time.perf_counter()
        history = run_trial(spec)
        walls.append(time.perf_counter() - start)
        histories.append(history)
        _check_history(outcome, spec, history)
        probe.sample()

    if trace:
        spec = _trial_spec(shape, seed * 64)
        tracer = install(Tracer())
        try:
            outcome.attempted += 1
            start = time.perf_counter()
            traced = run_trial(spec)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        probe.sample()
        _check_history(outcome, spec, traced)
        if [dataclasses.astuple(r) for r in traced.records] != [
            dataclasses.astuple(r) for r in histories[0].records
        ]:
            outcome.fail("traced trial differs from the untraced trial of the same spec")
        layer_metrics(outcome, tracer, traced_wall)
        serving_layer_defaults(outcome)
        outcome.put("trace.overhead_s", traced_wall - walls[0], "s")
        outcome.put("bench.slowdown", probe.slowdown(), "ratio")
        sweeps = traced.records[-1].glasso_sweeps or 0
        if sweeps != tracer.counts["graphical.glasso.sweeps"]:
            outcome.fail(
                f"records report {sweeps} glasso sweeps, spans counted "
                f"{tracer.counts['graphical.glasso.sweeps']}"
            )
        tracer.dump(work_dir / f"spans-{name}.jsonl")
        if name == "trial-labelpick" and not tiny:
            vars_max = tracer.maxima.get("graphical.glasso.vars_max", 0)
            if vars_max < 50:
                outcome.drift.append(f"trial-labelpick reached only {vars_max} glasso variables")

    if name == "trial-wide" and not tiny:
        rows = _train_rows(shape, seed * 64)
        reference_rows = _train_rows(TRIAL_SHAPES["trial-labelpick"], seed * 64)
        if rows < 4 * reference_rows:
            outcome.drift.append(
                f"trial-wide has {rows} train rows, under 4x trial-labelpick's {reference_rows}"
            )
    if name == "trial-labelpick" and not tiny:
        # Untraced proxy for the variable guard: the final LF count bounds
        # the glasso variables from above, and glasso must have run.
        final = histories[0].records[-1]
        if final.n_lfs < 50 or not final.glasso_fits:
            outcome.drift.append(
                f"trial-labelpick ended with {final.n_lfs} LFs and {final.glasso_fits} glasso fits"
            )

    if not trace:
        heads = [_headline(history) for history in histories[:shape.min_trials]]
        normalised = [wall / probe.slowdown(k, k + 1) for k, wall in enumerate(walls)]
        outcome.put("setup_s", (import_s + spec_s) / probe.slowdown(), "s")
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.put("job_s", statistics.median(normalised), "s", len(walls))
        outcome.raw.update(
            setup_s=import_s + spec_s, job_s=statistics.median(walls), slowdown=probe.slowdown()
        )
        outcome.put("avg_test_accuracy", statistics.fmean(h[0] for h in heads), "fraction", len(heads))
        outcome.put("label_accuracy", statistics.fmean(h[1] for h in heads), "fraction", len(heads))
        outcome.put("label_coverage", statistics.fmean(h[2] for h in heads), "fraction", len(heads))
        outcome.put("ok_share", _ratio(outcome.attempted - outcome.failed, outcome.attempted), "fraction")
    return outcome


# -- serve-mixed ----------------------------------------------------------------

SERVE_DATASET = "youtube"
SERVE_SCALE = 1.0
POOL_SIZE = 60
LFS_PER_COLD = 20
WARM_PER_COLD = 2
POLL_S = 0.02
COLD_TIMEOUT_S = 60.0
MAX_SESSIONS = 2
SESSIONS_PER_ROUND = 3
LFS_PER_SESSION = 20
LFS_PER_VISIT = 4
ACCURACY_COLDS = 30
LABEL_ROUNDS = 3
WORKER_IDLE_S = 2.0

TINY_SERVE = {"POOL_SIZE": 16, "LFS_PER_COLD": 4, "LFS_PER_SESSION": 4, "LFS_PER_VISIT": 2}


class Client:
    """One keep-alive HTTP connection: ``(status, raw body)`` per request."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port, timeout=COLD_TIMEOUT_S)

    def request(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=COLD_TIMEOUT_S
            )
            return 0, repr(error).encode("utf-8")

    def close(self) -> None:
        self.connection.close()


class ServeStack:
    """Labeling service + HTTP server + one thread worker in a scratch dir."""

    def __init__(self, work_dir: Path):
        from repro.runner.worker import run_worker
        from repro.serving import LabelingService
        from repro.serving.server import serve

        self._stopped = False
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work_dir))
        self.spool, self.cache = self.dir / "spool", self.dir / "cache"
        self.service = LabelingService(self.spool, self.cache, max_sessions=MAX_SESSIONS)
        self.server = serve(self.service, quiet=True)
        self.host, self.port = self.server.server_address[:2]
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._server_thread.start()
        self._worker = threading.Thread(
            target=run_worker,
            args=(str(self.spool), str(self.cache)),
            kwargs={"idle_timeout": WORKER_IDLE_S, "quiet": True},
            daemon=True,
        )
        self._worker.start()
        client = Client(self.host, self.port)
        status, _ = client.request("GET", "/healthz")
        client.close()
        if status != 200:
            raise RuntimeError(f"service not healthy after start (HTTP {status})")

    def stop(self) -> None:
        """Stop serving (idempotent); the worker exits once the queue stays idle."""
        if self._stopped:
            return
        self._stopped = True
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self._server_thread.join(timeout=10.0)

    def join(self) -> None:
        self._worker.join(timeout=WORKER_IDLE_S + 60.0)
        if self._worker.is_alive():
            raise RuntimeError("serving worker did not exit")
        shutil.rmtree(self.dir, ignore_errors=True)


def _wire_pool(split, seed: int, size: int) -> list[dict]:
    """Distinct wire LFs a simulated user writes for seeded query instances."""
    from repro.labeling.wire import lf_to_wire
    from repro.simulation.simulated_user import SimulatedUser

    user = SimulatedUser(split.train, random_state=seed)
    rng = random.Random(f"pool:{seed}")
    pool, seen = [], set()
    for _ in range(50 * size):
        lf = user.design_lf(rng.randrange(len(split.train)))
        if lf is None:
            continue
        wire = lf_to_wire(lf)
        token = json.dumps(wire, sort_keys=True)
        if token not in seen:
            seen.add(token)
            pool.append(wire)
            if len(pool) == size:
                return pool
    raise RuntimeError(f"simulated user produced only {len(pool)} distinct LFs")


class ServeTraffic:
    """Two closed-loop clients against one :class:`ServeStack`, taking turns.

    One thread drives both connections: a cold request (with its warm
    repeats), then one step of the session client, and again.  A cold job
    so never shares the interpreter with a session refit, and its latency
    is one distribution instead of two overlapping ones whose mix, and so
    whose median, changes from run to run.

    After each cold request, while the service is idle, a short
    :class:`SpeedProbe` sample runs; a run's cold latency divided by the
    median of these samples' slowdown tracks the machine's speed during
    the traffic itself.
    """

    def __init__(self, stack: ServeStack, pool: list[dict], seed: int, sizes: dict,
                 label_rounds: int):
        self.stack, self.pool, self.seed, self.sizes = stack, pool, seed, sizes
        self.label_rounds = label_rounds
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.session_lf: list[float] = []
        self.completed: list[tuple[dict, bytes, str]] = []  # (body, cold bytes, key)
        self.done_at: dict[str, float] = {}
        self.sessions: list[tuple[int, int, list[dict], bytes]] = []  # round, seed, lfs, labels
        self.attempted = 0
        self.ok = 0
        self.problems: list[str] = []
        self.probe = SpeedProbe(steps=10000)
        self._subsets = random.Random(f"cold:{seed}")
        self._seen_subsets: set = set()

    def _op(self, ok: bool, problem: str | None = None) -> None:
        self.attempted += 1
        if ok:
            self.ok += 1
        elif problem:
            self.problems.append(problem)

    # Every cold request and every session gets its own dataset seed, so a
    # run averages over many generated corpora instead of depending on one.
    def cold_body(self) -> dict:
        while True:
            picks = tuple(self._subsets.sample(range(len(self.pool)), self.sizes["LFS_PER_COLD"]))
            if picks not in self._seen_subsets:
                self._seen_subsets.add(picks)
                break
        return {
            "dataset": SERVE_DATASET,
            "lfs": [self.pool[i] for i in picks],
            "seed": self.seed * 1000 + len(self._seen_subsets),
            "scale": SERVE_SCALE,
        }

    def session_seed(self, round_no: int, slot: int) -> int:
        return self.seed * 1000 + 500 + round_no * SESSIONS_PER_ROUND + slot

    def session_lfs(self, round_no: int, slot: int) -> list[dict]:
        rng = random.Random(f"session:{self.seed}:{round_no}:{slot}")
        return [self.pool[i] for i in rng.sample(range(len(self.pool)), self.sizes["LFS_PER_SESSION"])]

    def run(self, seconds: float) -> float:
        """Drive both clients until *seconds* pass and the session client
        has finished its label rounds; returns the traffic wall, less the
        probe's time."""
        deadline = time.perf_counter() + seconds
        cold_client = Client(self.stack.host, self.stack.port)
        session_client = Client(self.stack.host, self.stack.port)
        rng = random.Random(f"warm:{self.seed}")
        steps = self._session_steps(session_client, deadline)
        start = time.perf_counter()
        try:
            self._one_cold(cold_client, rng)
            self.probe.sample()
            for _ in steps:
                self._one_cold(cold_client, rng)
                self.probe.sample()
        except Exception as error:  # noqa: BLE001 - reported as a failure
            self._op(False, f"serving traffic raised {error!r}")
        finally:
            cold_client.close()
            session_client.close()
        return time.perf_counter() - start - sum(self.probe.samples)

    def _one_cold(self, client: Client, rng: random.Random) -> None:
        """One cold request; the warm repeats go out while it is pending."""
        body = self.cold_body()
        start = time.perf_counter()
        status, raw = client.request("POST", "/label", body)
        if status != 202:
            self._op(False, f"cold POST /label answered {status}: {raw[:200]!r}")
            return
        key = json.loads(raw)["key"]
        for _ in range(WARM_PER_COLD):
            if self.completed:
                self._one_warm(client, rng)
        while True:
            time.sleep(POLL_S)
            status, raw = client.request("GET", f"/label/{key}")
            if status == 200:
                break
            if status != 202 or time.perf_counter() - start > COLD_TIMEOUT_S:
                self._op(False, f"cold job {key[:12]} ended with {status}: {raw[:200]!r}")
                return
        done = time.perf_counter()
        self.cold.append(done - start)
        self.done_at[key] = done
        self.completed.append((body, raw, key))
        self._op(True)

    def _one_warm(self, client: Client, rng: random.Random) -> None:
        body, cold_raw, key = self.completed[rng.randrange(len(self.completed))]
        start = time.perf_counter()
        status, raw = client.request("POST", "/label", body)
        elapsed = time.perf_counter() - start
        if status != 200 or raw != cold_raw:
            self._op(False, f"warm repeat of {key[:12]} answered {status} with different bytes")
            return
        self.warm.append(elapsed)
        self._op(True)

    def _session_steps(self, client: Client, deadline: float):
        """The session client as a generator: each ``next`` makes one step."""
        round_no = 0
        while round_no < self.label_rounds or time.perf_counter() < deadline:
            yield from self._session_round(client, round_no, deadline)
            round_no += 1

    def _session_round(self, client: Client, round_no: int, deadline: float):
        """Open more sessions than stay live, stream LFs round-robin, read labels.

        Yields after opening each session and after each visit to one.
        """
        ids, lists = [], []
        for slot in range(SESSIONS_PER_ROUND):
            status, raw = client.request(
                "POST", "/sessions",
                {
                    "dataset": SERVE_DATASET,
                    "seed": self.session_seed(round_no, slot),
                    "scale": SERVE_SCALE,
                },
            )
            self._op(status == 201, f"POST /sessions answered {status}")
            if status != 201:
                return
            ids.append(json.loads(raw)["session_id"])
            lists.append(self.session_lfs(round_no, slot))
            yield
        visit = self.sizes["LFS_PER_VISIT"]
        finished = True
        for offset in range(0, self.sizes["LFS_PER_SESSION"], visit):
            if round_no >= self.label_rounds and time.perf_counter() >= deadline:
                finished = False
                break
            for session_id, lfs in zip(ids, lists):
                for lf in lfs[offset:offset + visit]:
                    start = time.perf_counter()
                    status, raw = client.request("POST", f"/sessions/{session_id}/lfs", lf)
                    elapsed = time.perf_counter() - start
                    ok = status == 200 and not json.loads(raw).get("duplicate", True)
                    self._op(ok, f"session LF answered {status}: {raw[:200]!r}")
                    if ok:
                        self.session_lf.append(elapsed)
                yield
        if finished:
            for slot, (session_id, lfs) in enumerate(zip(ids, lists)):
                status, raw = client.request("GET", f"/sessions/{session_id}/labels")
                self._op(status == 200, f"session labels answered {status}")
                if status == 200:
                    self.sessions.append((round_no, self.session_seed(round_no, slot), lfs, raw))
        for session_id in ids:
            status, _ = client.request("DELETE", f"/sessions/{session_id}")
            self._op(status == 200, f"DELETE session answered {status}")


def _replay(body: dict):
    from repro.runner.executor import run_trial
    from repro.serving.schemas import parse_label_request

    spec = parse_label_request(body)
    return spec, run_trial(spec)


def _verify_serving(outcome: Outcome, traffic: ServeTraffic, seed: int, label_rounds: int):
    """Replay sampled outputs directly.

    Every session of the first *label_rounds* rounds is replayed, plus
    one later session and one cold result.  Returns all replayed histories
    and those of the first rounds' sessions, whose final labels the
    label-quality metrics read.
    """
    from repro.serving.schemas import canonical_json, label_payload

    histories, label_histories = [], []
    rng = random.Random(f"verify:{seed}")
    if traffic.completed:
        body, raw, key = traffic.completed[rng.randrange(len(traffic.completed))]
        spec, history = _replay(body)
        histories.append(history)
        if canonical_json(label_payload(spec, history)) != raw:
            outcome.fail(f"cold result {key[:12]} differs from a direct run_trial")
    checked = [entry for entry in traffic.sessions if entry[0] < label_rounds]
    later = [entry for entry in traffic.sessions if entry[0] >= label_rounds]
    if later:
        checked.append(later[rng.randrange(len(later))])
    for round_no, session_seed, lfs, raw in checked:
        _, history = _replay(
            {"dataset": SERVE_DATASET, "lfs": lfs, "seed": session_seed, "scale": SERVE_SCALE}
        )
        histories.append(history)
        if round_no < label_rounds:
            label_histories.append(history)
        served = json.loads(raw)
        for extra in ("session", "dataset", "n_lfs"):
            served.pop(extra)
        if canonical_json(served) != canonical_json(history.artifacts):
            outcome.fail(f"session labels of round {round_no} differ from an lfset replay")
    return histories, label_histories


def _serve_setup(seed: int, sizes: dict, work_dir: Path):
    from repro.datasets import load_dataset

    split = load_dataset(SERVE_DATASET, scale=SERVE_SCALE, random_state=seed)
    pool = _wire_pool(split, seed, sizes["POOL_SIZE"])
    return pool, ServeStack(work_dir)


def _serve_pass(outcome: Outcome, stack: ServeStack, pool, seed: int, sizes: dict,
                seconds: float, tracer: Tracer | None, label_rounds: int):
    """Run traffic on *stack*, check it, and read the leak counters."""
    traffic = ServeTraffic(stack, pool, seed, sizes, label_rounds)
    if tracer is not None:
        install(tracer)
    try:
        wall = traffic.run(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    client = Client(stack.host, stack.port)
    status, raw = client.request("GET", "/stats")
    client.close()
    stack.stop()
    outcome.attempted += traffic.attempted
    outcome.failed += traffic.attempted - traffic.ok
    outcome.problems.extend(traffic.problems)
    if status != 200:
        outcome.fail(f"GET /stats answered {status}")
        return traffic, wall, {}
    if not traffic.cold or not traffic.session_lf or not traffic.sessions:
        outcome.fail("serve-mixed finished without a cold result or a complete session round")
    return traffic, wall, json.loads(raw)


def _serve_guards(outcome: Outcome, traffic: ServeTraffic, stats: dict, histories,
                  cache_dir: Path, tiny: bool) -> None:
    from repro.runner.results.pickle_store import ResultCache

    store = ResultCache(cache_dir)
    glasso_fits = sum((h.records[-1].glasso_fits or 0) for h in histories)
    for _, _, key in traffic.completed:
        stored = store.get(key)
        if stored is not None:
            glasso_fits += stored.records[-1].glasso_fits or 0
    if glasso_fits:
        outcome.drift.append(f"serve-mixed ran {glasso_fits} glasso fits; expected none")
    if not tiny and stats.get("sessions", {}).get("resumes", 0) == 0:
        outcome.drift.append("serve-mixed resumed no evicted session")


def run_serve_workload(seed: int, seconds: float, trace: bool, tiny: bool,
                       import_s: float, work_dir: Path) -> Outcome:
    """``serve-mixed``: cold/warm label requests beside session LF streams."""
    outcome = Outcome()
    sizes = {
        "POOL_SIZE": POOL_SIZE, "LFS_PER_COLD": LFS_PER_COLD,
        "LFS_PER_SESSION": LFS_PER_SESSION, "LFS_PER_VISIT": LFS_PER_VISIT,
    }
    if tiny:
        sizes.update(TINY_SERVE)

    # The label metrics need every session of the first LABEL_ROUNDS rounds;
    # a traced run reports none, so it checks only the first round.
    label_rounds = 1 if trace else LABEL_ROUNDS
    setup_times, stacks = [], []
    try:
        # Earlier set-ups are stopped straight away; their idle workers are
        # joined at the end.  The last stack serves the traffic, started
        # right after it so its worker never idles out first.
        for repeat in range(1 if trace else SETUP_REPEATS):
            if stacks:
                stacks[-1].stop()
            start = time.perf_counter()
            pool, stack = _serve_setup(seed, sizes, work_dir)
            setup_times.append(time.perf_counter() - start)
            stacks.append(stack)

        results = []
        # In a traced run the same traffic runs twice, each on a fresh
        # stack: untraced, then traced, so the difference is the overhead.
        tracers = [None, Tracer()] if trace else [None]
        for number, tracer in enumerate(tracers):
            if number:
                stacks.append(ServeStack(work_dir))
            pass_stack = stacks[-1]
            pass_seconds = seconds / len(tracers)
            traffic, wall, stats = _serve_pass(
                outcome, pass_stack, pool, seed, sizes, pass_seconds, tracer, label_rounds
            )
            histories, label_histories = _verify_serving(outcome, traffic, seed, label_rounds)
            _serve_guards(outcome, traffic, stats, histories, pass_stack.cache, tiny)
            results.append((traffic, wall, stats, tracer, label_histories))
    finally:
        for stack in stacks:
            stack.stop()
        for stack in stacks:
            stack.join()

    traffic, wall, stats, _, label_histories = results[0]
    if not trace:
        cold_payloads = [json.loads(raw) for _, raw, _ in traffic.completed[:ACCURACY_COLDS]]
        # The served labels equal these replays' (checked above), and the
        # replays score them against the generated ground truth.
        finals = [history.records[-1] for history in label_histories]
        label_acc = [record.label_accuracy for record in finals]
        label_cov = [record.label_coverage for record in finals]
        setup = import_s + statistics.median(setup_times)
        cold = statistics.median(traffic.cold)
        slowdown = traffic.probe.slowdown()
        outcome.put("setup_s", setup / slowdown, "s", len(setup_times))
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.put("job_s", cold / slowdown, "s", len(traffic.cold))
        outcome.raw.update(setup_s=setup, job_s=cold, slowdown=slowdown)
        outcome.put(
            "avg_test_accuracy",
            statistics.fmean(p["average_test_accuracy"] for p in cold_payloads),
            "fraction", len(cold_payloads),
        )
        outcome.put("label_accuracy", statistics.fmean(label_acc), "fraction", len(label_acc))
        outcome.put("label_coverage", statistics.fmean(label_cov), "fraction", len(label_cov))
        outcome.put("ok_share", _ratio(outcome.attempted - outcome.failed, outcome.attempted), "fraction")
        return outcome

    untraced_cold = statistics.median(traffic.cold)
    traffic, wall, stats, tracer, _ = results[1]
    layer_metrics(outcome, tracer, wall)
    queue_waits = [
        tracer.events["lease"][key] - tracer.events["enqueue"][key]
        for key in tracer.events["enqueue"] if key in tracer.events["lease"]
    ]
    detect_waits = [
        traffic.done_at[key] - tracer.events["put"][key]
        for key in traffic.done_at if key in tracer.events["put"]
    ]
    outcome.put("serving.queue_wait_ms", _median_ms(queue_waits), "ms", len(queue_waits))
    outcome.put("serving.detect_wait_ms", _median_ms(detect_waits), "ms", len(detect_waits))
    outcome.put("serving.cold_p90_ms", 1000 * percentile(traffic.cold, 0.9), "ms", len(traffic.cold))
    outcome.put("serving.warm_p50_ms", 1000 * percentile(traffic.warm, 0.5), "ms", len(traffic.warm))
    outcome.put("serving.warm_p90_ms", 1000 * percentile(traffic.warm, 0.9), "ms", len(traffic.warm))
    outcome.put(
        "serving.session_lf_p50_ms", 1000 * percentile(traffic.session_lf, 0.5), "ms", len(traffic.session_lf)
    )
    outcome.put(
        "serving.session_lf_p90_ms", 1000 * percentile(traffic.session_lf, 0.9), "ms", len(traffic.session_lf)
    )
    outcome.put("serving.throughput_per_s", traffic.ok / wall, "1/s", traffic.ok)
    sessions = stats.get("sessions", {})
    outcome.put("sessions.resumes", sessions.get("resumes", 0), "count")
    outcome.put("sessions.evictions", sessions.get("evictions", 0), "count")
    admission = stats.get("admission", {})
    outcome.put("serving.admission_rejected", admission.get("rejected", 0), "count")
    outcome.put("serving.inflight_after", admission.get("inflight", 0), "count")
    outcome.put("serving.pending_after", stats.get("jobs", {}).get("pending", 0), "count")
    outcome.put("trace.overhead_s", statistics.median(traffic.cold) - untraced_cold, "s")
    outcome.put("bench.slowdown", traffic.probe.slowdown(), "ratio")
    if tracer.totals().get("graphical.glasso", {}).get("calls", 0):
        outcome.drift.append("serve-mixed traced glasso calls; expected none")
    tracer.dump(work_dir / "spans-serve-mixed.jsonl")
    return outcome
