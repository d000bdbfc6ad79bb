"""Byte-identity of CLI reports on a fixed corpus.

Each `<name>.graph.json` under data/golden has one report per command
it was run through, `<name>.<command>.json`, written by the CLI before
the per-graph caches and the per-leaf bamboo embeddings were introduced.
Any change to certificates, witnesses or the JSON layout shows up here.

`data/golden/an-arcs/<name>.json` holds the `an-arcs` report of each
argument set in `ARC_CASES`, written by the CLI while the arc series
were still computed with `Fraction` products.  A change to any sampled
arc, contact order, residual or separation verdict shows up there.
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


ARC_GOLDEN = GOLDEN / "an-arcs"
# name -> (arguments after `an-arcs`, exit code)
ARC_CASES = {
    "n3_f2": (["--n", "3", "--family", "2", "--seed", "5"], 0),
    "n4_f4_trunc6": (["--n", "4", "--family", "4", "--trunc", "6", "--samples", "8"], 0),
    "n5_f1_vs4": (["--n", "5", "--family", "1", "--against", "4", "--samples", "10", "--seed", "11"], 0),
    "n8_f6_trunc40": (["--n", "8", "--family", "6", "--trunc", "40", "--samples", "6", "--seed", "3"], 0),
    "n10_f3_vs9": (["--n", "10", "--family", "3", "--against", "9", "--samples", "3", "--seed", "7"], 0),
    "n12_f12_vs1": (["--n", "12", "--family", "12", "--against", "1", "--samples", "2", "--seed", "2"], 0),
}


def test_arc_corpus_present():
    assert sorted(p.stem for p in ARC_GOLDEN.glob("*.json")) == sorted(ARC_CASES)


@pytest.mark.parametrize("name", sorted(ARC_CASES))
def test_an_arcs_reproduces_golden(name, tmp_path):
    args, expected_code = ARC_CASES[name]
    out = tmp_path / "out.json"
    assert main(["an-arcs", *args, "--out", str(out)]) == expected_code
    assert out.read_bytes() == (ARC_GOLDEN / f"{name}.json").read_bytes()
