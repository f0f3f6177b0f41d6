"""Hygiene of the package modules, read with `ast` (no linter runs on
this tree): a deletion must not leave an unused import or a dead
definition behind, and no module reaches into another's private
names."""
import ast
import pathlib
from collections import Counter

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "xrank"
# __init__ imports names to re-export them
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_imports_are_used_and_public(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
            if node.level or (node.module or "").startswith("xrank"):
                private += [a.name for a in node.names
                            if a.name.startswith("_")]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert (sorted(bound - used), private) == ([], [])


# definitions that nothing in the package uses, kept on purpose
_UNUSED_BY_THE_PACKAGE = {
    # perfbench/workloads.py's vector helpers; ROADMAP item 10 retires them
    "exactlin.vec_add", "exactlin.vec_scale",
    # API that perfbench and the tests use
    "geometry.random_point", "geometry.MultiProjectiveSpace.segre",
    "geometry.MultiProjectiveSpace.veronese",
    # API that only tests/test_exactlin.py's Echelon tests use
    "exactlin.Echelon.reduce",
}


def _references(node):
    """Names that node's code reads, as a Counter: plain names, attribute
    names and the names that imports bring in (a re-export counts)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(a.name for a in n.names)
    return found


def _definitions(body, prefix):
    """(qualified name, node) of the functions, methods and classes
    defined in body, nested classes' included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, prefix + node.name + ".")


def test_every_definition_is_used():
    # a function, method or class that nothing in the package references
    # outside its own definition is dead, unless listed above; dunder
    # methods are called by Python itself
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in _PACKAGE.glob("*.py")}
    used = Counter()
    for tree in trees.values():
        used += _references(tree)
    dead = set()
    for stem, tree in trees.items():
        for name, node in _definitions(tree.body, stem + "."):
            short = node.name
            if short.startswith("__") and short.endswith("__"):
                continue
            if used[short] - _references(node)[short] == 0:
                dead.add(name)
    assert sorted(dead - _UNUSED_BY_THE_PACKAGE) == []
    assert sorted(_UNUSED_BY_THE_PACKAGE - dead) == []

