"""The repository benchmark: one command, every workload, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload trial-labelpick --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics; ``--trace 1`` additionally runs it with spans around every layer's
public entry point and reports the per-layer metrics instead.  Inputs are
generated from ``--seed``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; a human-readable
report with sample counts goes to standard error.  The exit code is 0 only
when every correctness check and workload-shape guard passed.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that each prints every metric ``BENCHMARK.json`` names, with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the workloads' matrices are small, and on a small shared
# machine a second BLAS thread mostly waits on the first and on neighbours,
# which makes every timing noisier (and, here, slower).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trial-labelpick", "trial-wide", "serve-mixed")
#: Scratch space inside the checkout (temporary service dirs, span dumps).
WORK_DIR = ROOT / ".perfbench"
IMPORT_REPEATS = 3


#: What loading the program means: every entry point the workloads call.
PROGRAM_MODULES = ("repro.runner.executor", "repro.runner.worker", "repro.serving.server")


def _load_program() -> float:
    """Import the program from ``src/``; returns the median import time.

    A process imports only once, so the import is also timed in fresh
    interpreters, and the median of those runs is the import part of
    ``setup_s``.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(PROGRAM_MODULES)], cwd=ROOT, check=True,
            env={**os.environ, "PYTHONPATH": str(source)},
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _report(name: str, outcome, trace: bool) -> None:
    out = sys.stderr
    print(f"perfbench {name} ({'traced' if trace else 'untraced'})", file=out)
    for metric, (value, unit) in outcome.metrics.items():
        samples = outcome.samples.get(metric)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {metric:40s} {value:14.6f} {unit}{suffix}", file=out)
    if outcome.layer_table:
        wall = outcome.metrics["trace.wall_s"][0]
        print("  layers by self time:", file=out)
        for layer, self_s, calls in sorted(outcome.layer_table, key=lambda row: -row[1]):
            if calls:
                print(f"    {layer:28s} {self_s:9.3f} s  {100 * self_s / wall:5.1f}%  "
                      f"{calls} calls", file=out)
    for name, value in outcome.raw.items():
        print(f"  raw {name:36s} {value:14.6f}", file=out)
    for problem in outcome.problems:
        print(f"  FAILED: {problem}", file=out)
    for drift in outcome.drift:
        print(f"  workload drifted: {drift}", file=out)


def run(args) -> int:
    import_s = _load_program()
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    if args.workload == "serve-mixed":
        outcome = workloads.run_serve_workload(
            args.seed, args.seconds, bool(args.trace), args.tiny, import_s, WORK_DIR
        )
    else:
        outcome = workloads.run_trial_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
            import_s, WORK_DIR,
        )
    _report(args.workload, outcome, bool(args.trace))
    correct = outcome.failed == 0 and not outcome.problems and not outcome.drift
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": max(outcome.failed, 0 if correct else 1),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at a tiny size; check metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    declared = [w["name"] for w in spec["workloads"]]
    ok = sorted(declared) == sorted(WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json declares {declared}, run.py knows {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny",
            ]
            started = time.perf_counter()
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=170
            )
            problems = []
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append("no JSON result line")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True or done.returncode != 0:
                    problems.append(f"correct={result.get('correct')} exit={done.returncode}")
                metrics = result.get("metrics", {})
                missing = sorted(set(expected[trace]) - set(metrics))
                extra = sorted(set(metrics) - set(expected[trace]))
                if missing or extra:
                    problems.append(f"missing {missing} extra {extra}")
                for name, unit in expected[trace].items():
                    entry = metrics.get(name)
                    if entry is None:
                        continue
                    if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                        problems.append(f"{name}: {entry}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload:16s} trace={trace} {time.perf_counter() - started:6.1f}s {status}")
            if problems:
                ok = False
                sys.stdout.write(done.stderr[-3000:])
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke mode)")
    parser.add_argument("--smoke", action="store_true", help="check every workload at a tiny size")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run(args)
    finally:
        for leftover in WORK_DIR.glob("serve-*"):
            shutil.rmtree(leftover, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
