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

The index holds trials only.  Benchmark headline numbers live in
``BENCH_core.json``; ``python benchmarks/record.py CURRENT.json
COMMITTED.json`` prints the drift between two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.runner.results import TRIAL_METRICS, IndexedResultStore

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
        "--counts", action="store_true", help="print index table sizes and exit"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of rows printed"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit rows as JSON lines"
    )
    args = parser.parse_args(argv)

    if args.cache_dir is None:
        parser.error("need --cache-dir (or REPRO_CACHE_DIR)")

    store = IndexedResultStore(args.cache_dir)
    db = store.db

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
