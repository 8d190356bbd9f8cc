"""Packaging: ``pyproject.toml`` declares every third-party module the code imports.

CI installs ``pip install -e ".[test]"`` on a clean runner, so a module the
package or its tests import without declaring it only fails there.  These
checks read every import statement (function-level ones too) with ``ast``
and compare the top-level names that are neither standard library nor
first-party against the declared requirements.  ``pyproject.toml`` is read
with a few regular expressions rather than ``tomllib``, which Python 3.10
(a CI matrix entry) does not have.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _toml_strings(section: str, key: str) -> list[str]:
    """The strings of the ``key = [...]`` array in ``[section]`` of pyproject.toml."""
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(rf"^\[{re.escape(section)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert block is not None, f"pyproject.toml has no [{section}] table"
    array = re.search(rf"^{re.escape(key)}\s*=\s*\[(.*?)\]", block.group(1), re.M | re.S)
    assert array is not None, f"[{section}] has no {key} array"
    return re.findall(r'"([^"]+)"', array.group(1))


def _module_names(requirements: list[str]) -> set[str]:
    """Import names of requirement strings (``pytest-benchmark>=4`` -> ``pytest_benchmark``)."""
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def _third_party_imports(root: Path, first_party: set[str]) -> dict[str, list[str]]:
    """Top-level module -> importing files, for every non-stdlib, non-local import."""
    found: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top in first_party:
                    continue
                found.setdefault(top, []).append(str(path.relative_to(REPO)))
    return found


def _undeclared(found: dict[str, list[str]], declared: set[str]) -> dict[str, list[str]]:
    return {module: files[:3] for module, files in found.items() if module not in declared}


def test_package_imports_are_runtime_dependencies():
    declared = _module_names(_toml_strings("project", "dependencies"))
    found = _third_party_imports(REPO / "src" / "repro", {"repro"})
    assert "networkx" in found  # function-level imports are seen too
    assert _undeclared(found, declared) == {}


def test_test_imports_are_declared_for_the_test_extra():
    declared = _module_names(_toml_strings("project", "dependencies"))
    declared |= _module_names(_toml_strings("project.optional-dependencies", "test"))
    # Helper modules next to the tests (reference oracles, benchmarks/record.py
    # put on sys.path by one test) are local, not installed.
    local = {"repro"} | {
        path.stem for folder in ("tests", "benchmarks") for path in (REPO / folder).rglob("*.py")
    }
    found = _third_party_imports(REPO / "tests", local)
    assert "hypothesis" in found
    assert _undeclared(found, declared) == {}
