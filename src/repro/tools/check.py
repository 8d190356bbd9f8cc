"""The invariant-checker framework and its ``python -m repro.tools.check`` CLI.

Each *checker* is an AST-driven rule family over the ``repro`` source tree;
each violation is a :class:`Finding` — a stable rule id (``REPRO101``, ...)
anchored at ``path:line``.  The framework owns everything the rule families
share: file discovery, suppression pragmas, rule selection, text/JSON
rendering and CI-friendly exit codes, so a checker only has to turn syntax
trees into findings.

Suppression pragmas (both require the rule id — blanket suppression is
deliberately impossible, and the convention is to follow the pragma with
``-- <reason>``):

* inline — ``# repro: noqa[REPRO101] -- <why this occurrence is fine>``
  on the finding's own line;
* file-level — ``# repro: noqa-file[REPRO101] -- <why this whole file is
  exempt>`` on any line of the file (by convention in the module
  docstring's vicinity).

Exit codes: ``0`` clean, ``1`` unsuppressed findings (or a refused
``--update-fingerprint``), ``2`` usage errors.  ``--format json`` emits the
stable report schema pinned by ``tests/tools/test_framework.py``.
"""

from __future__ import annotations

import abc
import argparse
import ast
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Sequence

#: Schema version of the ``--format json`` report.  Bump only with the
#: consumers (the CI job and the format-stability test).
REPORT_FORMAT_VERSION = 1

_INLINE_PRAGMA = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")
_FILE_PRAGMA = re.compile(r"#\s*repro:\s*noqa-file\[([A-Z0-9,\s]+)\]")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation, anchored at a ``path:line`` location.

    Attributes
    ----------
    rule:
        Stable rule id (``REPRO101``, ...); the unit of selection and
        suppression.
    path:
        Path of the offending file, POSIX-style and relative to the scanned
        root (``serving/service.py``).
    line:
        1-based line the finding anchors to.
    message:
        Human-readable description of the specific violation.
    """

    rule: str
    path: str
    line: int
    message: str

    @property
    def location(self) -> str:
        """The clickable ``path:line`` anchor of this finding."""
        return f"{self.path}:{self.line}"

    def to_json(self) -> dict:
        """The finding as a plain dict (the JSON report's ``findings`` rows)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class Checker(abc.ABC):
    """Base class of one rule family.

    Subclasses declare their identity (:attr:`name`), rule catalogue
    (:attr:`rules`: id -> one-line description) and default file scope
    (:attr:`scope`: glob patterns relative to the scanned root), and
    implement either :meth:`check_file` (per-file AST rules) or override
    :meth:`check_root` entirely (cross-file rules like the schema
    fingerprint).
    """

    #: Short family name (``"determinism"``, ...); a ``--rules`` selector.
    name: str = ""
    #: Rule id -> one-line description of every rule this family can emit.
    rules: dict[str, str] = {}
    #: Root-relative glob patterns naming the files this family inspects.
    scope: tuple[str, ...] = ()

    def files(self, root: Path) -> list[Path]:
        """The scoped files under *root*, sorted for deterministic reports."""
        matched: set[Path] = set()
        for pattern in self.scope:
            matched.update(path for path in root.glob(pattern) if path.is_file())
        return sorted(matched)

    def check_root(self, root: Path) -> Iterator[Finding]:
        """Yield every finding in *root* (default: per-file over the scope).

        Files that fail to parse yield no findings here — the tree is
        assumed to be import-clean (the test suite would already be failing
        louder than any lint).
        """
        for path in self.files(root):
            relpath = path.relative_to(root).as_posix()
            source = path.read_text()
            try:
                tree = ast.parse(source)
            except SyntaxError:  # pragma: no cover - tree is import-clean
                continue
            yield from self.check_file(relpath, tree, source)

    def check_file(self, relpath: str, tree: ast.AST, source: str) -> Iterator[Finding]:
        """Yield findings for one parsed file (overridden by per-file rules)."""
        return iter(())


@dataclasses.dataclass
class CheckReport:
    """The outcome of one :func:`run_checks` invocation.

    Attributes
    ----------
    root:
        The source root that was scanned.
    rules:
        Every rule id that was enabled for the run, sorted.
    findings:
        Unsuppressed findings, sorted by location then rule.
    suppressed:
        Findings silenced by a pragma (kept for ``--show-suppressed``
        style introspection and the suppression-semantics tests).
    """

    root: Path
    rules: list[str]
    findings: list[Finding]
    suppressed: list[Finding]

    @property
    def clean(self) -> bool:
        """Whether the run produced no unsuppressed findings."""
        return not self.findings

    def to_json(self) -> dict:
        """The stable ``--format json`` report payload."""
        return {
            "version": REPORT_FORMAT_VERSION,
            "root": str(self.root),
            "rules": list(self.rules),
            "n_findings": len(self.findings),
            "n_suppressed": len(self.suppressed),
            "findings": [finding.to_json() for finding in self.findings],
        }

    def to_text(self) -> str:
        """The human-readable report (one ``path:line: RULE message`` per row)."""
        lines = [
            f"{finding.location}: {finding.rule} {finding.message}"
            for finding in self.findings
        ]
        summary = (
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed, "
            f"{len(self.rules)} rule(s) checked under {self.root}"
        )
        return "\n".join([*lines, summary])


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, in catalogue order.

    Imported lazily so ``repro.tools.check`` itself stays importable from
    the individual checker modules without cycles.
    """
    from repro.tools.determinism import DeterminismChecker
    from repro.tools.locks import LockDisciplineChecker
    from repro.tools.schema_version import SchemaVersionChecker

    return [
        DeterminismChecker(),
        SchemaVersionChecker(),
        LockDisciplineChecker(),
    ]


def default_root() -> Path:
    """The ``repro`` package directory this installation runs from."""
    return Path(__file__).resolve().parent.parent


def select_rules(checkers: Sequence[Checker], selectors: Sequence[str] | None) -> dict[str, str]:
    """Resolve ``--rules`` selectors against the checkers' catalogues.

    A selector is a family name (``determinism``), an exact rule id
    (``REPRO103``) or an id prefix (``REPRO1``), case-insensitive; ``None``
    selects everything.  Unknown selectors raise :class:`ValueError` so CI
    typos fail loudly instead of silently checking nothing.
    """
    catalogue: dict[str, str] = {}
    for checker in checkers:
        catalogue.update(checker.rules)
    if not selectors:
        return catalogue
    families = {checker.name.lower() for checker in checkers}
    selected: dict[str, str] = {}
    for raw in selectors:
        token = raw.strip()
        if not token:
            continue
        lowered = token.lower()
        if lowered in families:
            for checker in checkers:
                if checker.name.lower() == lowered:
                    selected.update(checker.rules)
            continue
        matched = {
            rule: text
            for rule, text in catalogue.items()
            if rule.upper().startswith(token.upper())
        }
        if not matched:
            raise ValueError(
                f"unknown rule selector {token!r}; know families "
                f"{sorted(families)} and rules {sorted(catalogue)}"
            )
        selected.update(matched)
    return selected


def suppressions_for(source: str) -> tuple[set[str], dict[int, set[str]]]:
    """Extract the file-level and per-line suppression pragmas of *source*.

    Returns ``(file_rules, {line: rules})`` — the rule ids suppressed for
    the whole file, and per 1-based line.  Pragmas carry explicit rule ids
    only; there is deliberately no "suppress everything" form.
    """
    file_rules: set[str] = set()
    by_line: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in _FILE_PRAGMA.finditer(text):
            file_rules.update(_pragma_rules(match.group(1)))
        for match in _INLINE_PRAGMA.finditer(text):
            by_line.setdefault(lineno, set()).update(_pragma_rules(match.group(1)))
    return file_rules, by_line


def _pragma_rules(body: str) -> set[str]:
    """Parse the comma-separated rule ids inside a pragma's brackets."""
    return {token.strip().upper() for token in body.split(",") if token.strip()}


def run_checks(
    root: Path | str | None = None,
    rules: Sequence[str] | None = None,
    checkers: Sequence[Checker] | None = None,
) -> CheckReport:
    """Run the checker suite over *root* and return the filtered report.

    *rules* are ``--rules`` selectors (see :func:`select_rules`); *checkers*
    overrides the registered suite (tests inject single checkers with
    narrowed scopes).  Suppression pragmas are applied here, centrally, so
    every rule family gets identical pragma semantics for free.
    """
    root = Path(root) if root is not None else default_root()
    suite = list(checkers) if checkers is not None else all_checkers()
    enabled = select_rules(suite, rules)

    raw: list[Finding] = []
    for checker in suite:
        if not set(checker.rules) & set(enabled):
            continue
        raw.extend(
            finding for finding in checker.check_root(root) if finding.rule in enabled
        )
    raw.sort(key=lambda finding: (finding.path, finding.line, finding.rule))

    kept: list[Finding] = []
    suppressed: list[Finding] = []
    pragma_cache: dict[str, tuple[set[str], dict[int, set[str]]]] = {}
    for finding in raw:
        if finding.path not in pragma_cache:
            path = root / finding.path
            source = path.read_text() if path.suffix == ".py" and path.exists() else ""
            pragma_cache[finding.path] = suppressions_for(source)
        file_rules, by_line = pragma_cache[finding.path]
        if finding.rule in file_rules or finding.rule in by_line.get(finding.line, ()):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return CheckReport(
        root=root, rules=sorted(enabled), findings=kept, suppressed=suppressed
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.tools.check`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check",
        description="Statically check the repro source tree's invariants.",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repro package directory to scan (default: this installation's)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule selectors: family names (determinism, "
        "schema, locks), exact ids (REPRO103) or id "
        "prefixes (REPRO1); default: all rules",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default text; json is the stable CI schema)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help="regenerate tools/schema_fingerprint.json (refused unless "
        "CACHE_FORMAT_VERSION was bumped alongside the payload change)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 clean, 1 findings)."""
    args = build_parser().parse_args(argv)
    root = Path(args.root) if args.root else default_root()
    checkers = all_checkers()

    if args.list_rules:
        for checker in checkers:
            for rule, text in sorted(checker.rules.items()):
                print(f"{rule}  [{checker.name}]  {text}")
        return 0

    if args.update_fingerprint:
        from repro.tools.schema_version import update_fingerprint

        ok, message = update_fingerprint(root)
        print(message)
        return 0 if ok else 1

    selectors = args.rules.split(",") if args.rules else None
    try:
        report = run_checks(root=root, rules=selectors, checkers=checkers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.clean else 1


def dotted_name(node: ast.AST) -> str | None:
    """The dotted source form of a Name/Attribute chain (``"time.time"``).

    Returns ``None`` for anything that is not a plain dotted chain — calls,
    subscripts and literals have no stable dotted identity.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def const_tuple_of(node: ast.AST) -> tuple[str, ...] | None:
    """The string elements of a literal tuple/list, or ``None`` if not one."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        values.append(element.value)
    return tuple(values)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess/CLI tests
    sys.exit(main())
