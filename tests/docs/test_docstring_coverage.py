"""Docstring-coverage floor on the documented subsystems (interrogate-equivalent).

The subsystems other machines run or other PRs extend — the experiment
engine (``repro.runner``), the serving layer (``repro.serving``), the
numeric core (``repro.numerics``), the label models and their EM base
(``repro.label_models``) and the static-analysis tooling (``repro.tools``)
— must keep their public surface (module docstrings, public classes,
public functions and methods) fully documented.  This is
the same check ``interrogate --fail-under`` would run, implemented over
``ast`` so it needs no extra dependency and runs in the tier-1 suite;
CI's docs job executes it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

#: Fraction of public objects that must carry a docstring.  The floor is
#: total on purpose: these packages are the documented examples the docs
#: tree points into.
COVERAGE_FLOOR = 1.0

#: ``(package, minimum public-object count)`` — the count guards against
#: the check silently scanning an empty/moved directory.
COVERED_PACKAGES = [
    ("repro.runner", 40),
    ("repro.serving", 30),
    ("repro.numerics", 15),
    ("repro.label_models", 20),
    ("repro.tools", 15),
]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _objects_of(path: Path, module_name: str):
    """Yield ``(qualified name, has_docstring)`` for the module's public API."""
    tree = ast.parse(path.read_text())
    yield module_name, ast.get_docstring(tree) is not None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            yield f"{module_name}.{node.name}", ast.get_docstring(node) is not None
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield f"{module_name}.{node.name}", ast.get_docstring(node) is not None
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(
                    member.name
                ):
                    yield (
                        f"{module_name}.{node.name}.{member.name}",
                        ast.get_docstring(member) is not None,
                    )


def _package_objects(package: str):
    """Every public object of *package*, recursively over its modules."""
    package_dir = Path(importlib.import_module(package).__file__).resolve().parent
    objects = []
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).with_suffix("")
        parts = [part for part in relative.parts if part != "__init__"]
        module_name = ".".join([package, *parts])
        objects.extend(_objects_of(path, module_name))
    return objects


@pytest.mark.parametrize(
    "package,minimum", COVERED_PACKAGES, ids=[pkg for pkg, _ in COVERED_PACKAGES]
)
def test_docstring_coverage_floor(package, minimum):
    objects = _package_objects(package)
    assert len(objects) >= minimum, f"{package} public surface unexpectedly small"
    missing = [name for name, documented in objects if not documented]
    coverage = 1.0 - len(missing) / len(objects)
    assert coverage >= COVERAGE_FLOOR, (
        f"{package} docstring coverage {coverage:.2%} below floor "
        f"{COVERAGE_FLOOR:.0%}; missing: {missing}"
    )
