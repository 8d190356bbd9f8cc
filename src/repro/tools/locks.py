"""Lock-discipline checker for the threaded subsystems (REPRO40x).

The serving layer, the SQLite-backed run-history index and the worker
heartbeat all share mutable state across threads behind a ``self._lock``.
Each such class declares its guarded attributes in a ``_GUARDED_BY_LOCK``
tuple — the machine-readable inventory this checker enforces — and may
additionally declare ``_LOCK_CONTEXTS``: names of helper context managers
(like the index's ``_tx``) whose ``with self._tx():`` blocks hold the lock.

Rules:

* ``REPRO401`` — a method reads or writes a guarded ``self.<attr>``
  outside a ``with self._lock:`` (or declared lock-context) block.
  ``__init__`` is exempt (construction is single-threaded by contract),
  and a method whose *caller* holds the lock opts out of checking by
  marking its ``def`` line with ``# repro: locked``.
* ``REPRO402`` — a class creates a ``self._lock`` but declares no
  ``_GUARDED_BY_LOCK`` inventory: the lock guards *something*, and leaving
  the inventory empty hides every future discipline violation.

The discipline is purely lexical — a guarded access is legal iff it is
textually inside a locking ``with`` (or a ``# repro: locked`` method).
That is deliberately stricter than runtime reality (re-entrant call chains
under an ``RLock``) and is exactly why the ``# repro: locked`` marker
exists: it turns the caller-holds-lock contract into visible documentation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.check import Checker, Finding, const_tuple_of, dotted_name

#: Callables whose result is a lock-ish object when assigned to ``self._lock``.
_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
}

#: The ``def``-line marker for methods whose caller holds the lock.
_LOCKED_MARKER = "# repro: locked"


class LockDisciplineChecker(Checker):
    """Enforce that declared-guarded attributes stay under their lock."""

    name = "locks"
    rules = {
        "REPRO401": "guarded attribute accessed outside `with self._lock:`",
        "REPRO402": "class creates a _lock but declares no _GUARDED_BY_LOCK inventory",
    }
    scope = (
        "serving/*.py",
        "runner/worker.py",
        "runner/results/history_db.py",
    )

    def __init__(self, scope: tuple[str, ...] | None = None):
        if scope is not None:
            self.scope = scope

    def check_file(self, relpath: str, tree: ast.AST, source: str) -> Iterator[Finding]:
        """Yield lock-discipline findings for every class in one module."""
        lines = source.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(relpath, node, lines)

    def _check_class(
        self, relpath: str, class_def: ast.ClassDef, lines: list[str]
    ) -> Iterator[Finding]:
        guarded = _declared_tuple(class_def, "_GUARDED_BY_LOCK")
        contexts = set(_declared_tuple(class_def, "_LOCK_CONTEXTS") or ())

        lock_line = _lock_creation_line(class_def)
        if lock_line is not None and guarded is None:
            yield Finding(
                "REPRO402",
                relpath,
                lock_line,
                f"{class_def.name} creates self._lock but declares no "
                "_GUARDED_BY_LOCK inventory of what it guards",
            )
        if not guarded:
            return

        guarded_set = set(guarded)
        for node in class_def.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue
            def_line = lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
            if _LOCKED_MARKER in def_line:
                continue
            yield from self._check_method(
                relpath, class_def.name, node, guarded_set, contexts
            )

    def _check_method(
        self,
        relpath: str,
        class_name: str,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: set[str],
        contexts: set[str],
    ) -> Iterator[Finding]:
        def visit(node: ast.AST, locked: bool) -> Iterator[Finding]:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    _is_locking_item(item.context_expr, contexts)
                    for item in node.items
                )
                for item in node.items:
                    yield from visit(item.context_expr, locked)
                    if item.optional_vars is not None:
                        yield from visit(item.optional_vars, holds)
                for statement in node.body:
                    yield from visit(statement, holds)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
                and not locked
            ):
                yield Finding(
                    "REPRO401",
                    relpath,
                    node.lineno,
                    f"{class_name}.{method.name} accesses guarded "
                    f"self.{node.attr} outside `with self._lock:`",
                )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, locked)

        for statement in method.body:
            yield from visit(statement, False)


def _declared_tuple(
    class_def: ast.ClassDef, name: str
) -> tuple[str, ...] | None:
    """The string-tuple class attribute *name*, or ``None`` if not declared."""
    for node in class_def.body:
        value = None
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets:
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                value = node.value
        if value is not None:
            return const_tuple_of(value) or ()
    return None


def _lock_creation_line(class_def: ast.ClassDef) -> int | None:
    """Line of a ``self._lock = threading.Lock()``-style assignment, if any."""
    for node in ast.walk(class_def):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            factory = dotted_name(node.value.func)
            if factory not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == "_lock"
                ):
                    return node.lineno
    return None


def _is_locking_item(context_expr: ast.AST, contexts: set[str]) -> bool:
    """Whether one ``with`` item holds the lock.

    ``with self._lock:`` (the lock object itself) and ``with self._tx():``
    (a declared lock-holding context manager) both count.
    """
    if dotted_name(context_expr) == "self._lock":
        return True
    if isinstance(context_expr, ast.Call):
        name = dotted_name(context_expr.func)
        if name is not None and name.startswith("self."):
            return name[len("self.") :] in contexts
    return False
