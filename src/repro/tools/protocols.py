"""Protocol-conformance checker for the registered protocols (REPRO50x).

Two protocols are registered:
:class:`~repro.runner.brokers.base.Broker` (implemented by the spool) and
:class:`~repro.runner.results.base.ResultStore` (pickle/indexed).  The
contract suites exercise behaviour, but structural drift between a
protocol and its implementations — a renamed parameter, a default dropped,
a new abstract method left unimplemented — surfaces there as obscure
failures deep in a scenario.  This checker catches the drift statically, at
the class definition.

Rules:

* ``REPRO501`` — a registered implementation class does not define some
  abstract method/property of its protocol (it would raise
  ``TypeError`` at instantiation, or worse, inherit a stub).
* ``REPRO502`` — an implementation's method signature is incompatible with
  the protocol's: positional parameter names/order differ, a parameter
  that has a default in the protocol lost it in the implementation, or
  the implementation adds required parameters the protocol's callers
  cannot supply.

Everything is resolved from source ASTs — implementations are found by
scanning the scoped files for classes whose base list names the protocol
class — so conformance is checked without importing (or instantiating)
any backend.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.tools.check import Checker, Finding, dotted_name, parse_scoped_sources

#: ``(protocol relpath, protocol class, implementation glob patterns)``.
PROTOCOL_SURFACES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("runner/brokers/base.py", "Broker", ("runner/brokers/*.py",)),
    ("runner/results/base.py", "ResultStore", ("runner/results/*.py",)),
)


class ProtocolConformanceChecker(Checker):
    """Check every registered backend against its protocol's full surface."""

    name = "protocols"
    rules = {
        "REPRO501": "backend class misses an abstract member of its protocol",
        "REPRO502": "backend method signature incompatible with its protocol",
    }
    scope = tuple(
        sorted(
            {relpath for relpath, _, _ in PROTOCOL_SURFACES}
            | {pattern for _, _, patterns in PROTOCOL_SURFACES for pattern in patterns}
        )
    )

    def __init__(
        self,
        surfaces: tuple[tuple[str, str, tuple[str, ...]], ...] | None = None,
    ):
        self.surfaces = PROTOCOL_SURFACES if surfaces is None else surfaces

    def check_root(self, root: Path) -> Iterator[Finding]:
        """Resolve each protocol and check every implementing class."""
        for base_relpath, base_name, patterns in self.surfaces:
            base_path = root / base_relpath
            if not base_path.exists():
                continue
            base_tree = ast.parse(base_path.read_text())
            base_class = _find_class(base_tree, base_name)
            if base_class is None:
                continue
            abstract = _abstract_members(base_class)
            if not abstract:
                continue
            for relpath, tree, _source in parse_scoped_sources(root, patterns):
                for class_def in ast.walk(tree):
                    if not isinstance(class_def, ast.ClassDef):
                        continue
                    if class_def.name == base_name:
                        continue
                    if not _subclasses(class_def, base_name):
                        continue
                    if _is_abstract_class(class_def):
                        continue
                    yield from self._check_implementation(
                        relpath, class_def, base_name, abstract
                    )

    def _check_implementation(
        self,
        relpath: str,
        class_def: ast.ClassDef,
        base_name: str,
        abstract: dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        defined = {
            node.name: node
            for node in class_def.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name, base_method in sorted(abstract.items()):
            impl = defined.get(name)
            if impl is None:
                yield Finding(
                    "REPRO501",
                    relpath,
                    class_def.lineno,
                    f"{class_def.name} does not implement abstract "
                    f"{base_name}.{name}",
                )
                continue
            if _is_property(base_method) or _is_property(impl):
                continue
            problem = _signature_problem(base_method, impl)
            if problem is not None:
                yield Finding(
                    "REPRO502",
                    relpath,
                    impl.lineno,
                    f"{class_def.name}.{name} signature drifts from "
                    f"{base_name}.{name}: {problem}",
                )


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _subclasses(class_def: ast.ClassDef, base_name: str) -> bool:
    """Whether *class_def*'s base list names *base_name* (possibly dotted)."""
    for base in class_def.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] == base_name:
            return True
    return False


def _decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for decorator in func.decorator_list:
        name = dotted_name(decorator)
        if name is not None:
            names.add(name.split(".")[-1])
    return names


def _is_property(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return "property" in _decorator_names(func)


def _abstract_members(class_def: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    """Abstract methods/properties of a protocol class, by name."""
    members: dict[str, ast.FunctionDef] = {}
    for node in class_def.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = _decorator_names(node)
            if decorators & {"abstractmethod", "abstractproperty"}:
                members[node.name] = node
    return members


def _is_abstract_class(class_def: ast.ClassDef) -> bool:
    """Whether *class_def* declares abstract members of its own."""
    return bool(_abstract_members(class_def))


def _positional_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[str, bool]]:
    """``(name, has_default)`` per positional parameter, ``self`` dropped."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    defaults = args.defaults
    padded = [None] * (len(positional) - len(defaults)) + list(defaults)
    rows = [
        (arg.arg, default is not None)
        for arg, default in zip(positional, padded)
    ]
    if rows and rows[0][0] in ("self", "cls"):
        rows = rows[1:]
    return rows


def _signature_problem(
    base: ast.FunctionDef | ast.AsyncFunctionDef,
    impl: ast.FunctionDef | ast.AsyncFunctionDef,
) -> str | None:
    """Describe how *impl*'s signature breaks *base*'s contract, if it does.

    Positional names must match the protocol's in order; a protocol default
    must survive in the implementation; extra implementation parameters must
    themselves be defaulted (a bare ``*args``/``**kwargs`` absorbs the
    rest).  Keyword-only parameters follow the same keep-the-default rule.
    """
    base_params = _positional_params(base)
    impl_params = _positional_params(impl)
    impl_has_varargs = impl.args.vararg is not None

    for index, (base_name, base_default) in enumerate(base_params):
        if index >= len(impl_params):
            if impl_has_varargs:
                break
            return f"missing positional parameter {base_name!r}"
        impl_name, impl_default = impl_params[index]
        if impl_name != base_name:
            return (
                f"positional parameter {index + 1} is {impl_name!r}, "
                f"protocol says {base_name!r}"
            )
        if base_default and not impl_default:
            return f"parameter {base_name!r} lost its protocol default"

    for impl_name, impl_default in impl_params[len(base_params) :]:
        if not impl_default:
            return (
                f"adds required positional parameter {impl_name!r} "
                "the protocol's callers cannot supply"
            )

    base_kwonly = {
        arg.arg: default is not None
        for arg, default in zip(base.args.kwonlyargs, base.args.kw_defaults)
    }
    impl_kwonly = {
        arg.arg: default is not None
        for arg, default in zip(impl.args.kwonlyargs, impl.args.kw_defaults)
    }
    impl_positional_names = {name for name, _ in impl_params}
    for name, base_default in base_kwonly.items():
        if name in impl_kwonly:
            if base_default and not impl_kwonly[name]:
                return f"keyword-only parameter {name!r} lost its protocol default"
        elif name not in impl_positional_names and impl.args.kwarg is None:
            return f"missing keyword-only parameter {name!r}"
    for name, has_default in impl_kwonly.items():
        if name not in base_kwonly and not has_default:
            return (
                f"adds required keyword-only parameter {name!r} "
                "the protocol's callers cannot supply"
            )
    return None
