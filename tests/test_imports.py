"""Every module-level import and definition in the package is used; no more is loaded.

No linter ships with the toolchain, so this walks each module's syntax
tree with the stdlib `ast`: a name bound by a module-level `import` or
`from ... import` must be read as a name somewhere in that module, a
module-level `def`, `class` or assigned name must be read somewhere in
the package outside its own statement, and so must a method or property
of a module-level class, by name, outside its own `def`.  The benchmark
scripts in `perfbench/` count as readers of methods, and a method that
overrides one of a base class from outside the package is exempt.  A
fresh interpreter checks
that loading the CLI, and with it every layer, does not pull in
`dataclasses`, `inspect` or `fractions`.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nasharcs"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from .order import NashRelation, an_relation\n\nan_relation(3, 0, 1)\n"
    assert unused_imports(source) == ["NashRelation"]


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a def, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node: ast.AST) -> set[str]:
    """Names read inside `node`: as a name, as an attribute or by an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(a.name.split(".")[-1] for a in sub.names)
    return out


def _imported(tree: ast.Module) -> dict[str, object]:
    """What each module-level absolute import binds, imported here."""
    out: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                out[a.asname or top] = importlib.import_module(a.name if a.asname else top)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            module = importlib.import_module(node.module)
            out.update((a.asname or a.name, getattr(module, a.name)) for a in node.names)
    return out


def _outside_bases(node: ast.ClassDef, imported: dict[str, object]) -> list[object]:
    """The bases of a class that come from an import outside the package."""
    out = []
    for base in node.bases:
        path = []
        while isinstance(base, ast.Attribute):
            path.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in imported:
            value = imported[base.id]
            for attr in reversed(path):
                value = getattr(value, attr)
            out.append(value)
    return out


def _methods(tree: ast.Module) -> list[tuple[ast.ClassDef, ast.stmt]]:
    """(class, def) for each non-dunder method or property of a
    module-level class that no base from outside the package has."""
    imported = _imported(tree)
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = _outside_bases(node, imported)
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
                and not any(hasattr(base, item.name) for base in bases)
            ):
                out.append((node, item))
    return out


def dead_definitions(sources: dict[str, str], readers: tuple[str, ...] = ()) -> list[str]:
    """Each module-level definition that no other statement reads, as
    "module:name", then each method that nothing outside its own `def`
    reads, as "module:Class.name"; `readers` are sources outside the
    package that count only as readers of methods."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [node for tree in trees.values() for node in tree.body]
    reads = [_read_names(node) for node in statements]

    def read_elsewhere(name: str, own: ast.stmt) -> bool:
        return any(name in r for node, r in zip(statements, reads) if node is not own)

    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if not read_elsewhere(name, node)
    ]
    outside = set().union(*(_read_names(ast.parse(source)) for source in readers))
    for module, tree in trees.items():
        for cls, method in _methods(tree):
            siblings = set().union(*(_read_names(item) for item in cls.body if item is not method))
            if not (method.name in outside or method.name in siblings
                    or read_elsewhere(method.name, cls)):
                dead.append(f"{module}:{cls.name}.{method.name}")
    return dead


def test_no_dead_module_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = tuple(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    assert dead_definitions(sources, readers) == []


def test_dead_definition_is_caught():
    # a helper read only by itself, an assignment nothing reads, and one
    # name each read through an import, an attribute and a plain name;
    # methods: one read only by itself, one only by a reader outside the
    # package, one only by a sibling, a dunder, a property nothing reads
    # and an override of an outside base's method
    sources = {
        "cycles.py": (
            "import argparse\nfrom typing import NamedTuple\n\n\n"
            "def arithmetic_genus(g, z):\n"
            "    return arithmetic_genus(g, z[1:]) if z else 0\n\n\n"
            "def fundamental_cycle(g):\n    return (1,)\n\n\n"
            "def is_rational(g):\n    return True\n\n\n"
            "MAX = 4\nLIMIT: int = MAX\n\n\n"
            "class Rays(NamedTuple):\n"
            "    det: int\n\n"
            "    def rows(self):\n        return self.rows()\n\n"
            "    def matrix(self):\n        return self\n\n"
            "    def _key(self):\n        return self.det\n\n"
            "    def __eq__(self, other):\n        return self._key() == other._key()\n\n"
            "    @property\n    def bits(self):\n        return 0\n\n\n"
            "class Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n        raise SystemExit(2)\n"
        ),
        "classify.py": (
            "from . import cycles\nfrom .cycles import Parser, Rays, fundamental_cycle\n\n"
            "cycles.is_rational(fundamental_cycle(None))\n"
        ),
    }
    readers = ("rays.matrix()\n",)
    assert dead_definitions(sources, readers) == [
        "cycles.py:arithmetic_genus",
        "cycles.py:LIMIT",
        "cycles.py:Rays.rows",
        "cycles.py:Rays.bits",
    ]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, because pytest and hypothesis import both modules
    # nor `fractions`, with its `decimal` and `numbers`: only `RayBasis.rows` uses it
    probe = (
        "import sys, nasharcs.cli; print(sorted("
        "{'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
