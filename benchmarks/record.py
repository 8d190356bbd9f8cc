"""Persist headline benchmark numbers to the repo-root ``BENCH_core.json``.

Every benchmark prints its summary to the pytest log, where it scrolls away.
:func:`record` additionally merges the headline numbers — engine wall-clock,
EM iteration totals, spool rename rates — into a single JSON file at the
repository root, keyed by benchmark name, so consecutive runs build up a
comparable record the repo can version.

The file is read-modify-written atomically (temp file + ``os.replace``) and
unknown keys are preserved, so benchmarks can update their own entry without
clobbering each other's.  ``REPRO_BENCH_RECORD_FILE`` redirects the output
(CI points it at a workspace artefact; tests point it at ``tmp_path``).

The file is last-run-wins per benchmark and is the one benchmark record:
the history of the numbers is the file's git history.  Run as a script, this
module prints the drift between two such files, numeric leaf by numeric
leaf::

    python benchmarks/record.py CURRENT.json COMMITTED.json
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

#: Environment variable redirecting the record file away from the repo root.
BENCH_RECORD_ENV_VAR = "REPRO_BENCH_RECORD_FILE"

#: Default location: ``BENCH_core.json`` next to the repository's ``conftest.py``.
DEFAULT_BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def bench_file() -> Path:
    """The record file currently in effect (env override or the default)."""
    override = os.environ.get(BENCH_RECORD_ENV_VAR, "").strip()
    return Path(override) if override else DEFAULT_BENCH_FILE


def _jsonable(value):
    """Coerce numpy scalars / paths / tuples into plain JSON values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def record(benchmark: str, values: dict, path: Path | None = None) -> Path:
    """Merge *values* under the *benchmark* key of the record file.

    Returns the path written.  The existing file's other entries survive; a
    corrupt or missing file is replaced rather than raising, so one bad run
    can never wedge the whole benchmark suite.
    """
    target = Path(path) if path is not None else bench_file()
    existing: dict = {}
    try:
        loaded = json.loads(target.read_text())
        if isinstance(loaded, dict):
            existing = loaded
    except (OSError, ValueError):
        pass
    existing[str(benchmark)] = _jsonable(values)

    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=target.parent, prefix=target.name + ".", delete=False
    )
    try:
        with handle:
            json.dump(existing, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, target)
    except BaseException:
        os.unlink(handle.name)
        raise
    return target


def _flatten(values, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict as ``{"a.b.c": value}``."""
    flat: dict[str, float] = {}
    if isinstance(values, dict):
        for name, value in values.items():
            flat.update(_flatten(value, f"{prefix}{name}."))
    elif isinstance(values, bool):
        pass  # bools are not drift metrics
    elif isinstance(values, (int, float)):
        flat[prefix.rstrip(".")] = float(values)
    return flat


def drift(current: dict, committed: Path) -> list[str]:
    """Lines describing drift of the *current* numbers vs the *committed* file.

    Each benchmark in *current* is compared with the committed entry of the
    same name, numeric leaf by numeric leaf; a benchmark the committed file
    lacks is flagged as new.
    """
    try:
        baseline = json.loads(Path(committed).read_text())
    except (OSError, ValueError) as error:
        return [f"(no committed baseline at {committed}: {error})"]
    lines: list[str] = []
    for benchmark in sorted(current):
        if benchmark not in baseline:
            lines.append(f"{benchmark}: new benchmark (no committed baseline)")
            continue
        old = _flatten(baseline[benchmark])
        new = _flatten(current[benchmark])
        for name in sorted(old.keys() & new.keys()):
            if old[name] == new[name]:
                continue
            delta = new[name] - old[name]
            ratio = f" ({delta / old[name]:+.1%})" if old[name] else ""
            lines.append(
                f"{benchmark}.{name}: {old[name]:g} -> {new[name]:g}{ratio}"
            )
    if not lines:
        lines.append("(no drift vs committed baseline)")
    return lines


def main(argv: list[str] | None = None) -> int:
    """Print the drift of ``CURRENT.json`` vs ``COMMITTED.json``; returns exit code."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python benchmarks/record.py CURRENT.json COMMITTED.json",
              file=sys.stderr)
        return 2
    current_path, committed = args
    try:
        current = json.loads(Path(current_path).read_text())
    except (OSError, ValueError) as error:
        print(f"(no current record at {current_path}: {error})")
        return 0
    for line in drift(current, Path(committed)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
