"""Byte-identity of CLI reports on a fixed corpus.

Each `<name>.graph.json` under data/golden has one report per command
it was run through, `<name>.<command>.json`.  The `analyze` and
`certify-minimal` reports were written by the CLI before the per-graph
caches and the per-leaf bamboo embeddings were introduced.  The `order`
and `decompose` reports, with the DOT file each writes to `--dot` as
`<name>.<command>.dot`, were written before `contracts_to_empty` lost
its pluggable pick order and the certificate lost its `Open` status;
`decompose` runs through the first and the last vertex of the file.
The order witnesses in the `analyze`, `order`, `certify-minimal` and
`an-order` reports were rewritten when each pair's witness became its
own ray column; nothing else in those reports changed then.
Any change to certificates, witnesses, contraction steps, Hasse diagrams
or the JSON layout shows up here.

`data/golden/an-arcs/<name>.json` holds the `an-arcs` report of each
argument set in `ARC_CASES`, written by the CLI while the arc series
were still computed with `Fraction` products; they stayed byte-identical
when the arc layer became integer-only.  A change to any sampled arc,
contact order, residual or separation verdict shows up there.
Every comparison goes through `assert_same`, so a mismatch in a large
report fails in seconds.
`data/golden/an-order/n6.{json,dot}` is `an-order --n 6 --dot`.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from nasharcs.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def assert_same(got: str | bytes, expected: str | bytes) -> None:
    """Fail unless two texts are equal, naming the first differing offset
    and showing about 200 characters around it.  The texts are compared as
    a bool first: pytest's own report of a failed `==` diffs them line by
    line, which on a report of a few megabytes runs for minutes."""
    if got == expected:
        return
    k = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    lo, hi = max(k - 100, 0), k + 100
    pytest.fail(
        f"first difference at offset {k} of lengths {len(got)} and {len(expected)}\n"
        f"got:      {got[lo:hi]!r}\nexpected: {expected[lo:hi]!r}",
        pytrace=False,
    )
_MINIMAL = ["bamboo_322", "dn6_minimal", *(f"minimal_{k}" for k in range(5))]
_DEFINITE = [*_MINIMAL, "e6", *(f"negdef_{k}" for k in range(4))]
# (graph name, command) -> exit code; `order` exits 1 where pairs stay open
CASES = {
    **{(name, "analyze"): 0 for name in
       ["bamboo_322", "dn6_minimal", "e6", *(f"negdef_{k}" for k in range(4)), "star_indefinite"]},
    **{(name, "certify-minimal"): 0 for name in _MINIMAL},
    **{(name, "decompose"): 0 for name in _MINIMAL},
    **{(name, "order"): 1 if name in ("e6", "negdef_1") else 0 for name in _DEFINITE},
}
# commands that also write a DOT file
DOT_COMMANDS = {"order", "decompose"}


def test_corpus_present():
    on_disk = {
        tuple(p.name.split(".")[:2])
        for p in GOLDEN.glob("*.json")
        if not p.name.endswith(".graph.json")
    }
    assert on_disk == set(CASES)
    dots = {tuple(p.name.split(".")[:2]) for p in GOLDEN.glob("*.dot")}
    assert dots == {case for case in CASES if case[1] in DOT_COMMANDS}
    assert len(CASES) == 34


def golden_argv(name: str, command: str) -> list[str]:
    """The CLI arguments of one graph case, without --dot and --out."""
    path = GOLDEN / f"{name}.graph.json"
    if command != "decompose":
        return [command, str(path)]
    ids = [v["id"] for v in json.loads(path.read_text())["vertices"]]
    return [command, str(path), "--x", ids[0], "--y", ids[-1]]


@pytest.mark.parametrize("name,command", sorted(CASES))
def test_cli_reproduces_golden(name, command, tmp_path):
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    args = golden_argv(name, command)
    if command in DOT_COMMANDS:
        args += ["--dot", str(dot)]
    assert main([*args, "--out", str(out)]) == CASES[(name, command)]
    assert_same(out.read_bytes(), (GOLDEN / f"{name}.{command}.json").read_bytes())
    if command in DOT_COMMANDS:
        assert_same(dot.read_bytes(), (GOLDEN / f"{name}.{command}.dot").read_bytes())


@pytest.mark.parametrize("name", _MINIMAL)
def test_certificate_evidence_orientation(name):
    """In a certificate pair, `positions`, `witness_ij` and `witness_ji`
    (like the bamboo and its piece) belong to the unordered pair, taken in
    vertex-index order: (a, b) and (b, a) carry the same values.  Only
    `order_witness` is oriented, lower at alpha than at beta."""
    doc = json.loads((GOLDEN / f"{name}.certify-minimal.json").read_text())
    ids = [v["id"] for v in doc["graph"]["vertices"]]
    index = {vid: k for k, vid in enumerate(ids)}
    pairs = {(p["alpha"], p["beta"]): p["evidence"] for p in doc["pairs"]}
    assert len(pairs) == len(ids) * (len(ids) - 1)
    for (alpha, beta), evidence in pairs.items():
        first, second = sorted((alpha, beta), key=index.__getitem__)
        unordered = {k: v for k, v in evidence.items() if k != "order_witness"}
        mirror = pairs[(beta, alpha)]
        assert unordered == {k: v for k, v in mirror.items() if k != "order_witness"}
        pi, pj = evidence["positions"]
        assert pi < pj
        assert (evidence["bamboo"][pi - 1], evidence["bamboo"][pj - 1]) == (first, second)
        assert evidence["witness_ij"][pi - 1] < evidence["witness_ij"][pj - 1]
        assert evidence["witness_ji"][pi - 1] > evidence["witness_ji"][pj - 1]
        witness = evidence["order_witness"]
        assert witness[index[alpha]] < witness[index[beta]]


def test_an_order_reproduces_golden(tmp_path):
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    assert main(["an-order", "--n", "6", "--dot", str(dot), "--out", str(out)]) == 0
    assert_same(out.read_bytes(), (GOLDEN / "an-order" / "n6.json").read_bytes())
    assert_same(dot.read_bytes(), (GOLDEN / "an-order" / "n6.dot").read_bytes())


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
    assert_same(out.read_bytes(), (ARC_GOLDEN / f"{name}.json").read_bytes())
