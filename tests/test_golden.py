"""Byte-identity of CLI reports on a fixed corpus.

Every case runs `python -m nasharcs.cli` in a fresh interpreter, as the
benchmark starts it: `cli` is `__main__`, and each layer loads on first
use.  Each checks the exit code, an empty stderr, the stdout bytes and,
for a command that writes one, the `--dot` file.

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

Reports too large to keep as goldens are checked against their own
`json.dumps(..., indent=2, sort_keys=True)` text, which is what
`python -m json.tool --sort-keys --indent 2` writes.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nasharcs
from nasharcs.classify import is_minimal
from nasharcs.generators import an_graph
from nasharcs.graph import WeightedDualGraph, graph_is_negative_definite, serialize_graph

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


def run_cli(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """`python -m nasharcs.cli <argv>` in a fresh interpreter that imports
    the same `nasharcs` as this process, with `env` added to its environment;
    stdout and stderr are captured as bytes."""
    src = str(Path(nasharcs.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "nasharcs.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, timeout=60)


def assert_cli_writes(argv: list[str], code: int, golden: Path, dot: Path | None,
                      tmp_path: Path) -> None:
    """Run the CLI on `argv`, adding `--dot` when a DOT golden is given, and
    check its exit code, an empty stderr, its stdout and its DOT file."""
    out_dot = tmp_path / "out.dot"
    proc = run_cli([*argv, "--dot", str(out_dot)] if dot else argv)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert_same(proc.stdout, golden.read_bytes())
    if dot:
        assert_same(out_dot.read_bytes(), dot.read_bytes())


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
    dot = GOLDEN / f"{name}.{command}.dot" if command in DOT_COMMANDS else None
    assert_cli_writes(golden_argv(name, command), CASES[(name, command)],
                      GOLDEN / f"{name}.{command}.json", dot, tmp_path)


def _golden(name: str, command: str) -> dict:
    return json.loads((GOLDEN / f"{name}.{command}.json").read_text())


@pytest.mark.parametrize("name", sorted(name for name, command in CASES if command == "analyze"
                                        and (name, "order") in CASES))
def test_analyze_agrees_with_order_and_certify_minimal(name):
    """`analyze` holds the relation table of `order` and, on a minimal
    graph, the certificate of `certify-minimal`; each is written by its
    own command, so the goldens must agree where they state one fact."""
    analyze = _golden(name, "analyze")
    shared = {"graph": analyze["graph"], "header": analyze["header"]}
    assert _golden(name, "order") == {**analyze["relation"], **shared}
    assert ("certificate" in analyze) == ((name, "certify-minimal") in CASES)
    if "certificate" in analyze:
        assert _golden(name, "certify-minimal") == {**analyze["certificate"],
                                                    "header": analyze["header"]}


@pytest.mark.parametrize("name", _MINIMAL)
def test_certificate_evidence_orientation(name):
    """In a certificate pair, `positions`, `witness_ij` and `witness_ji`
    (like the bamboo and its piece) belong to the unordered pair, taken in
    vertex-index order: (a, b) and (b, a) carry the same values.  Only
    `order_witness` is oriented, lower at alpha than at beta."""
    doc = _golden(name, "certify-minimal")
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
    assert_cli_writes(["an-order", "--n", "6"], 0, GOLDEN / "an-order" / "n6.json",
                      GOLDEN / "an-order" / "n6.dot", tmp_path)


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
    assert_cli_writes(["an-arcs", *args], expected_code, ARC_GOLDEN / f"{name}.json", None,
                      tmp_path)


def _negdef_60() -> WeightedDualGraph:
    """A seeded 60-vertex tree that is negative definite but not minimal:
    its largest hub weighs one less than its valence."""
    rng = random.Random(60)
    up = [rng.randrange(k) for k in range(1, 60)]
    val = [up.count(v) + (v > 0) for v in range(60)]
    w = [max(v, 2) for v in val]
    w[val.index(max(val))] -= 1
    g = WeightedDualGraph([(f"v{k}", w[k]) for k in range(60)],
                          [(f"v{k + 1}", f"v{u}") for k, u in enumerate(up)])
    assert graph_is_negative_definite(g) and not is_minimal(g)
    return g


def _path_300() -> WeightedDualGraph:
    """A 300-vertex path whose last weight is 400 and every other weight 2."""
    n = 300
    return WeightedDualGraph([(f"v{k}", 400 if k == n - 1 else 2) for k in range(n)],
                             [(f"v{k}", f"v{k + 1}") for k in range(n - 1)])


def _heavy_star() -> WeightedDualGraph:
    """31 weight-2 leaves around a hub of weight 1000: each leaf's supergraph
    has 999 attached vertices."""
    return WeightedDualGraph([("hub", 1000)] + [(f"l{k}", 2) for k in range(31)],
                             [("hub", f"l{k}") for k in range(31)])


# name -> (command and its arguments, the graph file going second, or None)
LARGE_CASES = {
    # 1.8 MB, about 28 write windows; every golden is smaller than one window
    "an-order-40": (["an-order", "--n", "40"], None),
    # 5.5 MB, the 1560 pairs of the certificate made while they are written
    "certify-minimal-a40": (["certify-minimal"], lambda: an_graph(40)),
    # 10 MB, about 150 write windows, the ray basis and pair table made
    # while they are written
    "analyze-negdef60": (["analyze"], _negdef_60),
    # 1.1 MB, a large surplus: 31 supergraphs of 1031 vertices blown down
    "certify-minimal-heavy-star": (["certify-minimal"], _heavy_star),
    # 1.8 MB, the 399 pieces made from the supergraph while they are written
    "decompose-path300": (["decompose", "--x", "v0", "--y", "v1"], _path_300),
    # one vertex: the pair lists are iterators with no items
    "order-one-vertex": (["order"], lambda: WeightedDualGraph([("E1", 2)], [])),
}


@pytest.mark.parametrize("name", LARGE_CASES)
def test_large_report_is_json_dumps(name, tmp_path):
    """A report of many write windows, written through a write-through
    stdout, is the `json.dumps` text of itself."""
    argv, make = LARGE_CASES[name]
    if make:
        path = tmp_path / "g.graph.json"
        path.write_text(json.dumps(serialize_graph(make())))
        argv = [argv[0], str(path), *argv[1:]]
    proc = run_cli(argv, PYTHONUNBUFFERED="1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"
    assert_same(proc.stdout, expected.encode("utf-8"))
