"""Every module-level import in the package is used, and no more is loaded.

No linter ships with the toolchain, so this walks each module's syntax
tree with the stdlib `ast`: a name bound by a module-level `import` or
`from ... import` must be read as a name somewhere in that module.  A
fresh interpreter checks that loading the CLI, and with it every layer,
does not pull in `dataclasses` or `inspect`.
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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, because pytest and hypothesis import both modules
    probe = "import sys, nasharcs.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
