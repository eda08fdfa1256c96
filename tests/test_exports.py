"""The package's public names: each one exported resolves, so a deleted
function cannot leave a dangling entry in ``csverify.__all__``; and each
module imports a name from the module that defines it."""

import ast
from pathlib import Path

import csverify


def test_every_exported_name_resolves():
    assert len(set(csverify.__all__)) == len(csverify.__all__)
    missing = [name for name in csverify.__all__ if not hasattr(csverify, name)]
    assert not missing


def test_star_import_runs():
    namespace = {}
    exec("from csverify import *", namespace)
    assert set(csverify.__all__) <= set(namespace)


_SRC = Path(csverify.__file__).parent


def _top_level_names(tree):
    """Names a module defines itself: functions, classes and assignment targets, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_imports_between_modules_name_their_definitions():
    """`from .mod import name` takes a name that mod defines, not one it imported, and
    no `_`-prefixed name crosses modules."""
    trees = {path.stem: ast.parse(path.read_text()) for path in _SRC.glob("*.py")}
    defined = {mod: _top_level_names(tree) for mod, tree in trees.items()}
    bad = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            source = node.module or "__init__"
            for alias in node.names:
                name = alias.name
                private = name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                if private or name not in defined[source]:
                    bad.append(f"{mod}: from .{node.module or ''} import {name}")
    assert not bad
