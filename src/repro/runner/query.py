"""Query CLI for the run-history database (``python -m repro.runner.query``).

Answers analytical questions against the ``results.sqlite3`` index of an
:class:`~repro.runner.results.indexed.IndexedResultStore` cache directory —
spec-field filters, metric predicates, cross-grid leaderboards — without
unpickling a single result blob, and rebuilds the index from the blobs when
asked (``--reindex``, the backfill path for caches written without an
index, and the way to rebuild the index of a cache several hosts share).

Examples::

    # adopt a cache written without an index: build it from the blob shards
    python -m repro.runner.query --cache-dir /shared/cache --reindex

    # spec-field filter + metric predicate, straight off the index
    python -m repro.runner.query --cache-dir /shared/cache \\
        --dataset youtube --where "final_accuracy >= 0.8 AND lm_warm_fits > 0"

    # cross-grid framework leaderboard by mean headline metric
    python -m repro.runner.query --cache-dir /shared/cache \\
        --leaderboard --metric average_accuracy --group-by framework

    # the recorded benchmark trajectory, and its drift vs BENCH_core.json
    python -m repro.runner.query --db BENCH_history.sqlite3 --benchmarks \\
        --trajectory-diff BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.runner.results import TRIAL_METRICS, IndexedResultStore, RunHistoryDB

#: Columns shown by the default (non ``--json``) trial listing, in order.
_LISTING_COLUMNS = (
    "key",
    "framework",
    "dataset",
    "seed",
    "n_iterations",
    "average_accuracy",
    "final_accuracy",
    "lm_fits",
    "lm_warm_fits",
)


def _emit(rows: list[dict], as_json: bool, columns=None) -> None:
    """Print *rows* as JSON lines or as an aligned text table."""
    if as_json:
        for row in rows:
            print(json.dumps(row, sort_keys=True, default=str))
        return
    if not rows:
        print("(no rows)")
        return
    names = [c for c in (columns or rows[0].keys()) if c in rows[0]]
    table = [
        [_cell(row.get(name)) for name in names]
        for row in rows
    ]
    widths = [
        max(len(name), *(len(line[i]) for line in table))
        for i, name in enumerate(names)
    ]
    print("  ".join(name.ljust(width) for name, width in zip(names, widths)))
    for line in table:
        print("  ".join(value.ljust(width) for value, width in zip(line, widths)))


def _cell(value) -> str:
    """One table cell: keys shortened, floats rounded, ``None`` as ``-``."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    text = str(value)
    if len(text) == 64 and all(c in "0123456789abcdef" for c in text):
        return text[:12] + "..."  # a content key: the prefix identifies it
    return text


def _flatten(values, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict as ``{"a.b.c": value}``."""
    flat: dict[str, float] = {}
    if isinstance(values, dict):
        for name, value in values.items():
            flat.update(_flatten(value, f"{prefix}{name}."))
    elif isinstance(values, bool):
        pass  # bools are not trajectory metrics
    elif isinstance(values, (int, float)):
        flat[prefix.rstrip(".")] = float(values)
    return flat


def trajectory_diff(db: RunHistoryDB, committed: Path) -> list[str]:
    """Lines describing drift of the latest recorded runs vs *committed*.

    Compares each benchmark's most recent :meth:`RunHistoryDB
    .benchmark_trajectory` row against the committed ``BENCH_core.json``
    entry of the same name, numeric leaf by numeric leaf — the cross-session
    regression signal CI prints after the benchmark smokes.
    """
    try:
        baseline = json.loads(Path(committed).read_text())
    except (OSError, ValueError) as error:
        return [f"(no committed baseline at {committed}: {error})"]
    latest: dict[str, dict] = {}
    for row in db.benchmark_trajectory():  # oldest first: later rows win
        latest[row["benchmark"]] = row["values"]
    lines: list[str] = []
    for benchmark in sorted(latest):
        if benchmark not in baseline:
            lines.append(f"{benchmark}: new benchmark (no committed baseline)")
            continue
        old = _flatten(baseline[benchmark])
        new = _flatten(latest[benchmark])
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
    """CLI entry point (``python -m repro.runner.query``); returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.query",
        description="Query the run-history index of a trial-result cache.",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="result-store root (its results.sqlite3 is the index; "
        "env REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="query this database file directly (overrides --cache-dir; "
        "--reindex still needs --cache-dir for the blobs)",
    )
    parser.add_argument(
        "--reindex",
        action="store_true",
        help="rebuild the index by walking the cache's blob shards first "
        "(the backfill for pickle-only caches)",
    )
    parser.add_argument("--framework", default=None, help="filter: framework name")
    parser.add_argument("--dataset", default=None, help="filter: dataset name")
    parser.add_argument("--seed", type=int, default=None, help="filter: trial seed")
    parser.add_argument(
        "--where",
        default=None,
        help="raw SQL predicate over the trials columns, e.g. "
        '"final_accuracy >= 0.8 AND lm_warm_fits > 0"',
    )
    parser.add_argument(
        "--leaderboard",
        action="store_true",
        help="rank groups by mean --metric instead of listing trials",
    )
    parser.add_argument(
        "--metric",
        default="average_accuracy",
        choices=TRIAL_METRICS,
        metavar="METRIC",
        help="leaderboard metric (default average_accuracy; one of the "
        "numeric trials columns)",
    )
    parser.add_argument(
        "--group-by",
        default="framework",
        help="comma-separated leaderboard grouping columns "
        "(default framework; e.g. framework,dataset)",
    )
    parser.add_argument(
        "--iterations", default=None, metavar="KEY",
        help="list the per-iteration rows of one trial (full content key)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="?",
        const="",
        default=None,
        metavar="NAME",
        help="print the recorded benchmark trajectory (optionally one "
        "benchmark's)",
    )
    parser.add_argument(
        "--trajectory-diff",
        default=None,
        metavar="BENCH_JSON",
        help="print drift of the latest recorded benchmark runs vs this "
        "committed BENCH_core.json",
    )
    parser.add_argument(
        "--counts", action="store_true", help="print index table sizes and exit"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of rows printed"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit rows as JSON lines"
    )
    args = parser.parse_args(argv)

    if args.cache_dir is None and args.db is None:
        parser.error("need --cache-dir (or REPRO_CACHE_DIR) or --db")
    if args.reindex and args.cache_dir is None:
        parser.error("--reindex walks the cache's blobs: it needs --cache-dir")

    if args.cache_dir is not None:
        store = IndexedResultStore(args.cache_dir, db_path=args.db)
        db = store.db
    else:
        store = None
        db = RunHistoryDB(args.db)

    try:
        if args.reindex:
            rebuilt = store.reindex()
            print(f"reindexed {rebuilt} trial(s) from {store.root}", file=sys.stderr)

        if args.counts:
            _emit([db.counts()], args.json)
            return 0
        if args.iterations is not None:
            _emit(db.iterations(args.iterations), args.json)
            return 0
        if args.benchmarks is not None or args.trajectory_diff is not None:
            if args.benchmarks is not None:
                rows = db.benchmark_trajectory(args.benchmarks or None)
                if args.limit is not None:
                    rows = rows[-args.limit :]
                _emit(
                    [
                        {
                            "benchmark": row["benchmark"],
                            "recorded_at": row["recorded_at"],
                            **{
                                name: value
                                for name, value in _flatten(row["values"]).items()
                            },
                        }
                        for row in rows
                    ],
                    args.json,
                )
            if args.trajectory_diff is not None:
                for line in trajectory_diff(db, Path(args.trajectory_diff)):
                    print(line)
            return 0
        if args.leaderboard:
            by = tuple(name.strip() for name in args.group_by.split(",") if name.strip())
            try:
                rows = db.leaderboard(
                    metric=args.metric,
                    by=by,
                    limit=args.limit,
                    framework=args.framework,
                    dataset=args.dataset,
                    seed=args.seed,
                    where=args.where,
                )
            except ValueError as error:  # an unknown --group-by column
                parser.error(str(error))
            _emit(rows, args.json)
            return 0
        rows = db.query(
            framework=args.framework,
            dataset=args.dataset,
            seed=args.seed,
            where=args.where,
            limit=args.limit,
        )
        _emit(rows, args.json, columns=_LISTING_COLUMNS)
        return 0
    finally:
        db.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
