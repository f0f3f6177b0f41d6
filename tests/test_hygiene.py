"""Import hygiene of the package modules, read with `ast` (no linter runs
on this tree): a deletion must not leave an unused import behind, and no
module reaches into another's private names."""
import ast
import pathlib

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
