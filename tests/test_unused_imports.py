"""No module of the package imports a name it never uses (pyflakes' F401,
written with `ast` since the suite has no linter). The one import kept
unused is `predict_batch` in `sela.acquisition`: the benchmark's tracer
patches it there (`perfbench/tracing.py`)."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sela"

# (module file, name): imports kept for a reason the module's own code does not show
KEPT = {("acquisition.py", "predict_batch")}


def unused_imports(tree):
    """Names bound by the module's imports and never read in it, with the line of their import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue   # a compiler directive, not a name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(), str(path)))
    assert {name: line for name, line in unused.items() if (path.name, name) not in KEPT} == {}


def test_the_kept_imports_are_still_unused_and_still_imported():
    for file_name, name in KEPT:
        assert name in unused_imports(ast.parse((SOURCE / file_name).read_text()))


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy.linalg\nfrom x import a as b, c\nc()\n")
    assert unused_imports(tree) == {"os": 2, "numpy": 2, "b": 3}
