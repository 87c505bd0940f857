"""The documented test install brings everything the tests import.

README installs the tests with `pip install -e ".[test]"`, so every module a
test file imports must be the package itself, the standard library, the
local oracles, or a project dependency or `test` extra in pyproject.toml.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
LOCAL = {"qprod", "oracles"}


def imported_modules(path):
    """The top-level names of every module the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def requirement_name(requirement):
    return re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")


def test_test_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {requirement_name(r)
                for r in project["dependencies"] + project["optional-dependencies"]["test"]}
    needed = set().union(*(imported_modules(p) for p in (ROOT / "tests").glob("*.py")))
    assert needed - set(sys.stdlib_module_names) - LOCAL - declared == set()
