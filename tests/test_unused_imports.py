"""No module of the package imports a name it never uses (pyflakes' F401,
written with `ast` since the suite has no linter). The one import kept
unused is `predict_batch` in `sela.acquisition`: the benchmark's tracer
patches it there (`perfbench/tracing.py`).

Every module-level function and class of the package is read somewhere in
the package, as a name or an attribute, and so is every member of its classes,
as an attribute (ROADMAP item 6: every name in src has a caller in src)."""

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


def unread_definitions(trees):
    """The module-level functions and classes of `trees` (module name -> tree) that no tree
    reads as a name or an attribute, keyed by (module name, definition) to their line."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {
        (module, node.name): node.lineno
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in read
    }


def test_every_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}
    assert unread_definitions(trees) == {}


def test_an_unread_definition_is_found():
    trees = {
        "a.py": ast.parse("def called(): pass\ndef unread(): pass\nclass Attribute: pass\ndef stored(): pass\n"),
        "b.py": ast.parse("from a import called, unread\nimport a\ncalled()\nx = a.Attribute\nstored = 1\n"
                          "class Local:\n    def method(self): pass\n"),
    }
    assert unread_definitions(trees) == {("a.py", "unread"): 2, ("a.py", "stored"): 4, ("b.py", "Local"): 6}


def unread_members(trees):
    """The methods (dunders exempt) and the annotated or assigned attributes of the classes of
    `trees` (module name -> tree) that no tree loads as an attribute, keyed by (module name,
    class, member) to their line. Members of `Enum` subclasses are exempt: they are reached by
    value. The check matches names, not owners: a member counts as read when an attribute of
    that name is loaded anywhere, from whatever object."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {}
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or "Enum" in {ast.unparse(base) for base in cls.bases}:
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [] if node.name.startswith("__") and node.name.endswith("__") else [node.name]
                elif isinstance(node, (ast.AnnAssign, ast.Assign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [target.id for target in targets if isinstance(target, ast.Name)]
                else:
                    names = []
                unread.update({(module, cls.name, name): node.lineno for name in names if name not in read})
    return unread


def test_every_class_member_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}
    assert unread_members(trees) == {}


def test_an_unread_member_is_found():
    trees = {
        "a.py": ast.parse("class Config:\n    used: int = 1\n    unread: int = 2\n    stored = 3\n"
                          "    def __init__(self): pass\n    def method(self): pass\n    def called(self): pass\n"
                          "class Kind(Enum):\n    VALUE = 1\n"),
        "b.py": ast.parse("from a import Config\nconfig = Config()\nconfig.called()\nx = config.used\n"
                          "config.stored = 4\nunread = 5\n"),
    }
    assert unread_members(trees) == {("a.py", "Config", "unread"): 3, ("a.py", "Config", "stored"): 4,
                                     ("a.py", "Config", "method"): 6}
