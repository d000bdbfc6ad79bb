"""Every module-level import and definition in the package is used; no more is loaded.

No linter ships with the toolchain, so this walks each module's syntax
tree with the stdlib `ast`: a name bound by a module-level `import` or
`from ... import` must be read as a name somewhere in that module, and
a module-level `def`, `class` or assigned name must be read somewhere
in the package outside its own statement.  A fresh interpreter checks
that loading the CLI, and with it every layer, does not pull in
`dataclasses`, `inspect` or `fractions`.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nasharcs"


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


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Each module-level definition that no other statement reads, as "module:name"."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [_read_names(node) for _, node in statements]
    dead = []
    for k, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            if not any(name in r for m, r in enumerate(reads) if m != k):
                dead.append(f"{module}:{name}")
    return dead


def test_no_dead_module_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []


def test_dead_definition_is_caught():
    # a helper read only by itself, an assignment nothing reads, and one
    # name each read through an import, an attribute and a plain name
    sources = {
        "cycles.py": (
            "def arithmetic_genus(g, z):\n"
            "    return arithmetic_genus(g, z[1:]) if z else 0\n\n\n"
            "def fundamental_cycle(g):\n    return (1,)\n\n\n"
            "def is_rational(g):\n    return True\n\n\n"
            "MAX = 4\nLIMIT: int = MAX\n"
        ),
        "classify.py": (
            "from . import cycles\nfrom .cycles import fundamental_cycle\n\n"
            "cycles.is_rational(fundamental_cycle(None))\n"
        ),
    }
    assert dead_definitions(sources) == ["cycles.py:arithmetic_genus", "cycles.py:LIMIT"]


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
