"""Every module of the package, and every test and benchmark file, uses
each name it imports.  The package's `__init__.py` is left out, since its
imports are the package's re-exports, and so is `from __future__ import
...`, which imports no name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "greendry"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p.relative_to(ROOT).as_posix()
                 for folder in ("tests", "benchmarks") for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from math import inf, nan as missing\n"
              "x: np.ndarray = inf\n")
    assert unused_imports(source) == ["missing", "os"]


def test_modules_are_found():
    assert {"cli.py", "solver.py", "sweep.py"} <= set(MODULES)
    assert {"tests/test_imports.py", "benchmarks/test_layers.py"} <= set(SCRIPTS)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_unused_import_in_tests_and_benchmarks(script):
    assert unused_imports((ROOT / script).read_text(encoding="utf-8")) == []
