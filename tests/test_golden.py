"""Byte-identity of CLI reports on a fixed corpus.

Each `<name>.graph.json` under data/golden has one report per command
it was run through, `<name>.<command>.json`, written by the CLI before
the per-graph caches and the per-leaf bamboo embeddings were introduced.
Any change to certificates, witnesses or the JSON layout shows up here.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from nasharcs.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(
    (p.name.split(".")[0], p.name.split(".")[1])
    for p in GOLDEN.glob("*.json")
    if not p.name.endswith(".graph.json")
)


def test_corpus_present():
    commands = {command for _, command in CASES}
    assert commands == {"analyze", "certify-minimal"}
    assert len(CASES) >= 15


@pytest.mark.parametrize("name,command", CASES)
def test_cli_reproduces_golden(name, command, tmp_path):
    out = tmp_path / "out.json"
    code = main([command, str(GOLDEN / f"{name}.graph.json"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{command}.json").read_bytes()
