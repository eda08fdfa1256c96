"""The package's public names: each one exported resolves, so a deleted
function cannot leave a dangling entry in ``csverify.__all__``; the
package namespace re-exports only what the benchmark reads off it; each
module imports a name from the module that defines it; no module reads a
private attribute that another module defines, so memos such as
``Matrix._kernel`` are read through ``linalg``'s accessors; the random
generator sits above everything but the CLI and imports no check; every
public name has a caller in the package or the benchmark, not in the
tests; and every public field has a reader there."""

import ast
import re
import types
from collections import Counter
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
                if _private(name) or name not in defined[source]:
                    bad.append(f"{mod}: from .{node.module or ''} import {name}")
    assert not bad


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads(src):
    """`module: .attr` for each `_`-prefixed attribute a module under src reads without defining
    it itself, as a function, class or assigned name or as an attribute it assigns."""
    bad = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        bad += sorted({f"{path.stem}: .{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                       and _private(node.attr) and node.attr not in defined})
    return bad


def test_no_module_reads_another_modules_private_attributes():
    """A memo kept on a Matrix is read through image, kernel, kernel_flag or centered_steps."""
    assert foreign_private_reads(_SRC) == []


def test_the_private_read_scan_flags_a_foreign_memo(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "store.py").write_text("class Box:\n    _LIMIT = 3\n\n    def __init__(self):\n"
                                  "        self._memo = {}\n\n    def _build(self):\n"
                                  "        return self._memo, self._LIMIT, self.__dict__\n")
    (src / "user.py").write_text("from .store import Box\n\n\ndef peek(box):\n"
                                 "    return box._build(), box.__class__\n")
    assert foreign_private_reads(src) == ["user: ._build"]
    (src / "user.py").write_text("def peek(box):\n    return box._memo, box._LIMIT\n")
    assert foreign_private_reads(src) == ["user: ._LIMIT", "user: ._memo"]


def test_only_the_cli_and_the_package_import_the_generator():
    """The split construction lives in verifier, so no library module depends on the random generator."""
    importers = {path.name for path in _SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "generators"}
    assert importers <= {"cli.py", "__init__.py"}


_CHECKS = re.compile(r"check_instance_hypotheses|checked|conclusion_exactness|verify_\w+")


def test_the_generator_imports_no_check():
    """The generator builds and the CLI checks: no hypothesis check or verdict engine is imported
    into generators.py, so a generator bug cannot hide behind a check of its own."""
    tree = ast.parse((_SRC / "generators.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module == "verifier" for alias in node.names]
    assert "CSInstance" in imported
    assert [name for name in imported if _CHECKS.fullmatch(name)] == []


_ROOT = _SRC.parents[1]
# the one reader that counts as a caller besides the package itself: the
# benchmark, which also names what it traces as "module.function" strings
_CLIENTS = sorted((_ROOT / "bench").rglob("*.py"))
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public_definitions(tree):
    """(qualified name, name, node) of each public module-level name and public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in sorted(_top_level_names(ast.Module(body=[node], type_ignores=[]))):
                if not name.startswith("_"):
                    yield name, name, node


def _references(tree, strings=False) -> Counter:
    """How often each identifier is read (not assigned) as a Name or an Attribute; with
    strings, also each part of a dotted-identifier string constant such as "linalg.rref"."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def uncalled_public_names(src, clients):
    """Public names defined under src that nothing reads: no Name or Attribute in src
    outside the definition itself (imports and ``__all__`` strings are neither), and no
    Name, Attribute or dotted string in the client files."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    inside = sum(map(_references, trees.values()), Counter())
    outside = sum((_references(ast.parse(path.read_text()), strings=True) for path in clients), Counter())
    return [f"{mod}.{qualname}"
            for mod, tree in trees.items() for qualname, name, node in _public_definitions(tree)
            if not outside[name] and inside[name] == _references(node)[name]]


def _package_reads(clients):
    """Names read as an attribute of the package's own name: ``cs.name`` or ``csverify.name``."""
    return {node.attr for path in clients for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("cs", "csverify")}


def test_the_package_exports_only_what_its_clients_read():
    """The package namespace holds what the benchmark reads off it: every public attribute but a
    submodule is in __all__, and the clients read every __all__ name through the package."""
    public = {name for name, value in vars(csverify).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(csverify.__all__)) == []
    assert sorted(set(csverify.__all__) - _package_reads(_CLIENTS)) == []


def test_every_public_name_has_a_caller():
    """API that only its own unit tests call is dead weight: delete it, or give it a caller."""
    assert uncalled_public_names(_SRC, _CLIENTS) == []


def unread_fields(src, clients):
    """`module.Class.field` for each public field of a public class under src, annotated in the
    class body or stored as ``self.field``, that no Attribute in src or the clients reads: a
    bare Name such as a keyword argument of the same spelling does not count."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = {node.attr for tree in [*trees.values(), *(ast.parse(path.read_text()) for path in clients)]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            fields = {item.target.id for item in cls.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            fields |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                       and node.value.id == "self"}
            unread += [f"{mod}.{cls.name}.{field}" for field in sorted(fields)
                       if not field.startswith("_") and field not in read]
    return unread


def test_every_field_has_a_reader():
    """A field that is set but never read only holds its own bytes: delete it, or read it."""
    assert unread_fields(_SRC, _CLIENTS) == []


def test_the_caller_scan_flags_a_new_uncalled_function(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text("def used():\n    return 1\n\n\n"
                                "def unused():\n    return unused() + used()\n\n\n"
                                "class Thing:\n    def method(self):\n        return used()\n")
    client = tmp_path / "client.py"
    client.write_text('import mod\nmod.Thing()\nTARGET = "mod.Thing.method"\n')
    assert uncalled_public_names(src, [client]) == ["mod.unused"]
    client.write_text("import mod\nmod.Thing()\n")
    assert uncalled_public_names(src, [client]) == ["mod.unused", "mod.Thing.method"]
