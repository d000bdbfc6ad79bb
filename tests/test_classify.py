from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from nasharcs import classify, cli
from nasharcs.classify import (
    ContractionTrace,
    certify_minimal,
    contracts_to_empty,
    decompose_minimal,
    is_an,
    is_minimal,
    serialize_certificate,
    serialize_decomposition,
    supergraph_dot,
)
from nasharcs.cli import main
from nasharcs.errors import InconsistentRelation, NotMinimal, SameVertex
from nasharcs.generators import an_graph
from nasharcs.graph import WeightedDualGraph, parse_graph, serialize_graph
from nasharcs.order import NashRelation, RelationMatrix, an_relation, relation_matrix

from builders import e6_graph
from oracles import decompose_by_walk, dot_ids, exhaustive_contraction_orders, graph_state

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402


def bamboo_322():
    return WeightedDualGraph(
        [("v1", 3), ("v2", 2), ("v3", 2)], [("v1", "v2"), ("v2", "v3")]
    )


# ---------------------------------------------------------------- classification

@pytest.mark.parametrize("n", range(1, 8))
def test_bamboo_is_minimal(n):
    assert is_minimal(an_graph(n))


def test_e6_not_minimal():
    assert not is_minimal(e6_graph())  # center has valence 3 > weight 2


def test_bamboo_322_is_minimal():
    assert is_minimal(bamboo_322())


def test_is_an():
    assert is_an(an_graph(5)) == 5
    assert is_an(bamboo_322()) is None
    star = WeightedDualGraph(
        [("c", 2), ("a", 2), ("b", 2), ("d", 2)],
        [("c", "a"), ("c", "b"), ("c", "d")],
    )
    assert is_an(star) is None


# ------------------------------------------------------------------- contraction

def test_contract_single_weight_one():
    g = parse_graph({"vertices": [{"id": "a", "w": 1}], "edges": [], "auxiliary": True})
    assert contracts_to_empty(g).empty


def test_contract_single_weight_two_stuck():
    g = WeightedDualGraph([("a", 2)], [])
    trace = contracts_to_empty(g)
    assert not trace.empty
    assert trace.steps == ()


@pytest.mark.parametrize("n", range(1, 21))
def test_bamboo_plus_one_contracts(n):
    # weight-2 bamboo with one weight-1 vertex on the end cascades to Empty
    vertices = [("p0", 1)] + [(f"p{k}", 2) for k in range(1, n + 1)]
    edges = [(f"p{k}", f"p{k + 1}") for k in range(n)]
    g = WeightedDualGraph(vertices, edges, auxiliary=True)
    trace = contracts_to_empty(g)
    assert trace.empty
    assert len(trace.steps) == n + 1


def test_contract_trace_records_steps():
    g = WeightedDualGraph([("a", 1), ("b", 2)], [("a", "b")], auxiliary=True)
    trace = contracts_to_empty(g)
    assert trace.empty
    assert [s.vertex for s in trace.steps] == ["a", "b"]
    assert trace.steps[0].neighbors == ("b",)


@pytest.mark.parametrize(
    "vertices, edges, first",
    [
        ([("y", 1), ("a", 1)], [("y", "a")], ("y", ("a",))),
    ],
    ids=["vertex"],
)
def test_contract_orders_by_index_not_id(vertices, edges, first):
    # the first eligible vertex comes in vertex order; sorting by id would
    # give ("a", ("y",))
    step = contracts_to_empty(WeightedDualGraph(vertices, edges, auxiliary=True)).steps[0]
    assert (step.vertex, step.neighbors) == first


def test_contract_order_robust(minimal_corpus):
    # greedy reaches Empty iff some blow-down order does
    checked = 0
    for g in minimal_corpus:
        if g.n > 6 or checked >= 10:
            continue
        checked += 1
        cert = decompose_minimal(g, g.ids[0], g.ids[1])
        sg = cert.supergraph
        if sg.n > 10:
            continue
        assert contracts_to_empty(sg).empty == exhaustive_contraction_orders(*graph_state(sg))


def test_contract_stuck_graph_all_orders():
    g = WeightedDualGraph([("a", 2), ("b", 2)], [("a", "b")])
    assert not contracts_to_empty(g).empty
    assert not exhaustive_contraction_orders(*graph_state(g))


def _corpus_graph(graph: corpus.GraphInput) -> WeightedDualGraph:
    return WeightedDualGraph(zip(graph.ids, graph.weights),
                             [(graph.ids[i], graph.ids[j]) for i, j in graph.edges])


def _benchmark_minimal_graphs() -> list[WeightedDualGraph]:
    """Seeded benchmark-corpus minimal trees of 2-40 vertices, and the
    128-vertex tree at the size cap (rng seed 7, hubs {0: 5, 1: 4}, 64
    extra weight units)."""
    rng = random.Random(21)
    graphs = []
    for _ in range(40):
        n = rng.randint(2, 40)
        hubs = {0: rng.randint(3, min(n - 1, 6))} if n >= 5 else {}
        graphs.append(corpus.minimal_graph(n, rng, hubs, rng.randint(0, 2 * n)))
    graphs.append(corpus.minimal_graph(128, random.Random(7), {0: 5, 1: 4}, 64))
    return [_corpus_graph(graph) for graph in graphs]


def test_leaf_supergraphs_blow_down_leaf_by_leaf(minimal_corpus):
    # weight - valence is 0 off z_1 and 1 at z_1, and a leaf blow-down keeps
    # it so: only leaves reach weight 1, and the tree peels down to z_1
    for g in minimal_corpus + _benchmark_minimal_graphs():
        for z1 in range(g.n):
            if g.valence(z1) > 1:
                continue
            supergraph, _ = classify._leaf_embedding(g, z1)
            contraction = contracts_to_empty(supergraph)
            excess = [w - len(a) for w, a in zip(supergraph.weights, supergraph.adj)]
            assert excess == [int(v == z1) for v in range(supergraph.n)]
            assert contraction.empty
            assert all(len(step.neighbors) <= 1 for step in contraction.steps)
            assert contraction.steps[-1].vertex == g.ids[z1]


# ----------------------------------------------------------------- decomposition

def test_decompose_matches_walk(minimal_corpus):
    # the end leaves, the per-leaf-pair bamboo and the first piece through y
    # give what walking the x-y path and scanning the pieces gave
    for g in minimal_corpus + _benchmark_minimal_graphs():
        for x in g.ids:
            for y in g.ids:
                if x != y:
                    cert = decompose_minimal(g, x, y)
                    got = (cert.bamboo, cert.positions, cert.designated, cert.m)
                    assert got == decompose_by_walk(g, x, y), (g.ids, x, y)


def test_decompose_bamboo_endpoints():
    n = 5
    g = an_graph(n)
    cert = decompose_minimal(g, "E1", f"E{n}")
    doc = serialize_decomposition(cert)
    assert cert.bamboo == tuple(f"E{k}" for k in range(1, n + 1))
    # one weight-1 vertex at the far end, none at z_1, none inside
    assert doc["attached"] == {"E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 1}
    assert len(list(doc["pieces"])) == 1
    assert cert.designated == 0
    assert cert.m == n
    assert cert.positions == (1, n)
    assert doc["contracts_to_empty"]


def test_decompose_bamboo_322():
    g = bamboo_322()
    cert = decompose_minimal(g, "v1", "v3")
    doc = serialize_decomposition(cert)
    assert cert.bamboo == ("v1", "v2", "v3")
    # z_1 = v1 has w = 3 > valence + 1 = 2, so one vertex; v3 is a leaf
    assert doc["attached"] == {"v1": 1, "v2": 0, "v3": 1}
    assert len(list(doc["pieces"])) == 2
    designated = cert.piece(cert.designated)
    assert "v1" in designated and "v3" in designated
    assert cert.m == 3
    assert cert.positions == (1, 3)
    assert doc["contracts_to_empty"]


def test_decompose_e6_rejected():
    with pytest.raises(NotMinimal):
        decompose_minimal(e6_graph(), "v1", "v2")


def test_decompose_same_vertex():
    with pytest.raises(SameVertex):
        decompose_minimal(an_graph(3), "E2", "E2")


def test_decompose_invariants_on_corpus(minimal_corpus):
    for g in minimal_corpus[:25]:
        for xi in range(g.n):
            for yi in range(xi + 1, g.n):
                cert = decompose_minimal(g, g.ids[xi], g.ids[yi])
                doc = serialize_decomposition(cert)
                assert doc["contracts_to_empty"]
                assert len(list(doc["pieces"])) == sum(doc["attached"].values())
                designated = cert.piece(cert.designated)
                assert g.ids[xi] in designated and g.ids[yi] in designated
                px, py = cert.positions
                assert 1 <= px < py <= cert.m
                # attachment counts per the weight-minus-valence rule
                z1 = cert.bamboo[0]
                for v in range(g.n):
                    vid = g.ids[v]
                    w, val = g.weights[v], g.valence(v)
                    expected = max(w - val - 1, 0) if vid == z1 else w - val
                    assert doc["attached"][vid] == expected


def test_decomposition_serialization():
    cert = decompose_minimal(bamboo_322(), "v1", "v3")
    doc = serialize_decomposition(cert)
    assert doc["contracts_to_empty"] is True
    assert doc["m"] == 3
    dot = supergraph_dot(cert)
    assert "lightgrey" in dot and dot.startswith("graph")


# ----------------------------------------------------------------- certification

def _all_proven(cert) -> bool:
    doc = serialize_certificate(cert)
    return doc["open_pairs"] == [] and all(p["status"] == "Proven" for p in doc["pairs"])


def _both_rules(cert) -> bool:
    """Every pair lists both rules and carries the relation table's order witness."""
    g = cert.graph
    rm = relation_matrix(g)
    return all(
        p["rules"] == ["Propagation", "OrderCriterion"]
        and p["evidence"] == cert.evidence(p["alpha"], p["beta"])
        and p["evidence"]["order_witness"]
        == rm.get(g.index[p["alpha"]], g.index[p["beta"]]).witness_ij
        for p in serialize_certificate(cert)["pairs"]
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_certify_bamboo(n):
    cert = certify_minimal(an_graph(n))
    assert _all_proven(cert)
    # on a weight-2 bamboo the order criterion also settles every pair
    assert _both_rules(cert)


def test_certify_bamboo_322():
    cert = certify_minimal(bamboo_322())
    assert len(list(cert.pairs())) == 6
    with pytest.raises(SameVertex):
        cert.evidence("v1", "v1")
    assert _all_proven(cert)
    assert _both_rules(cert)


def test_certify_rejects_non_minimal():
    with pytest.raises(NotMinimal):
        certify_minimal(e6_graph())


def test_certify_refuses_supergraph_that_does_not_blow_down(monkeypatch, tmp_path, capsys):
    # the blow-down is what maps the supergraph onto the A_m quotient; a
    # pair may be written as proven only when it succeeds.  Fresh graphs,
    # because the embedding is cached on the graph object.
    monkeypatch.setattr(classify, "contracts_to_empty", lambda sg: ContractionTrace((), False))
    with pytest.raises(InconsistentRelation):
        certify_minimal(bamboo_322())
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(bamboo_322())))
    assert main(["certify-minimal", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: InconsistentRelation: ") and err.count("\n") == 1


def test_certify_refuses_pair_without_order_witness(monkeypatch, tmp_path, capsys):
    # column j of the ray basis peaks strictly at j on a minimal graph, so
    # every ordered pair has an order witness; a table without one is
    # inconsistent and must not be written with one rule only
    class DropOneWitness(RelationMatrix):
        __slots__ = ()

        def get(self, i, j):
            rel = super().get(i, j)
            return NashRelation(None, rel.witness_ji) if (i, j) == (0, 1) else rel

    real = classify.relation_matrix
    monkeypatch.setattr(classify, "relation_matrix", lambda g: DropOneWitness(*real(g)))
    with pytest.raises(InconsistentRelation):
        certify_minimal(bamboo_322())
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(bamboo_322())))
    out_path = tmp_path / "report.json"
    assert main(["certify-minimal", str(path), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert err.startswith("error: InconsistentRelation: ") and err.count("\n") == 1


def test_certify_corpus_no_open_pairs(minimal_corpus):
    for g in minimal_corpus[:15]:
        cert = certify_minimal(g)
        assert _all_proven(cert)
        assert len(list(cert.pairs())) == g.n * (g.n - 1)


def test_order_criterion_subset_of_propagation(minimal_corpus):
    # both rules only ever assert non-inclusion; propagation covers every
    # pair, so any pair the order criterion proves is jointly covered
    for g in minimal_corpus[:10]:
        cert = certify_minimal(g)
        assert _all_proven(cert)
        direct = {p for p, rel in relation_matrix(g).pairs() if rel.witness_ij is not None}
        assert {(g.ids[a], g.ids[b]) for a, b in direct} == set(cert.pairs())
        assert _both_rules(cert)


def test_certificate_pairs_are_lazy_reiterable_and_sorted(minimal_corpus):
    # each serialization makes its pairs afresh, read once here; they come
    # in (alpha, beta) id order and both orders of a pair share their bamboo
    # evidence
    for g in minimal_corpus:
        pairs = list(serialize_certificate(certify_minimal(g))["pairs"])
        keys = [(p["alpha"], p["beta"]) for p in pairs]
        assert len(keys) == g.n * (g.n - 1) and keys == sorted(set(keys))
        evidence = {key: p["evidence"] for key, p in zip(keys, pairs)}
        for (alpha, beta), ev in evidence.items():
            other = dict(evidence[beta, alpha])
            witness = other.pop("order_witness")
            assert {**other, "order_witness": ev["order_witness"]} == ev
            a, b = g.index[alpha], g.index[beta]
            assert ev["order_witness"][a] < ev["order_witness"][b]
            assert witness[b] < witness[a]
            # every pair pulled back to A_m cites the same two tuples
            up, down = an_relation(len(ev["bamboo"]), 0, 1)
            assert ev["witness_ij"] is up and ev["witness_ji"] is down


def test_certificate_pairs_are_decomposed_while_written(minimal_corpus, monkeypatch, tmp_path):
    # serializing decomposes nothing; writing decomposes once per ordered pair
    calls = []
    decompose = classify.decompose_minimal
    monkeypatch.setattr(classify, "decompose_minimal",
                        lambda g, x, y: calls.append((x, y)) or decompose(g, x, y))
    for g in minimal_corpus[:10]:
        calls.clear()
        doc = serialize_certificate(certify_minimal(g))
        assert calls == []
        cli._emit(doc, str(tmp_path / "out.json"))
        assert len(calls) == g.n * (g.n - 1)


def test_certificate_serialization():
    doc = serialize_certificate(certify_minimal(an_graph(3)))
    assert doc["open_pairs"] == []
    pairs = list(doc["pairs"])
    assert len(pairs) == 6 and all(p["status"] == "Proven" for p in pairs)
    assert doc["fundamental_cycle"] == [1, 1, 1]


BAMBOO_322_DOT = """graph decomposition_supergraph {
  "v1" [label="v1 (3)"];
  "v2" [label="v2 (2)"];
  "v3" [label="v3 (2)"];
  "v1+1" [label="v1+1 (1)", style=filled, fillcolor=lightgrey];
  "v3+1" [label="v3+1 (1)", style=filled, fillcolor=lightgrey];
  "v1" -- "v2";
  "v1" -- "v1+1";
  "v2" -- "v3";
  "v3" -- "v3+1";
}
"""


def test_supergraph_dot_plain_ids_unchanged():
    assert supergraph_dot(decompose_minimal(bamboo_322(), "v1", "v3")) == BAMBOO_322_DOT


def test_supergraph_dot_escapes_quotes_and_backslashes():
    g = WeightedDualGraph([('v"1', 3), ("v2\\", 2), ("v3", 2)], [('v"1', "v2\\"), ("v2\\", "v3")])
    lines = supergraph_dot(decompose_minimal(g, 'v"1', "v3")).splitlines()
    assert lines[1] == r'  "v\"1" [label="v\"1 (3)"];'
    rename = {"v1": 'v"1', "v2": "v2\\", "v1+1": 'v"1+1'}
    plain = BAMBOO_322_DOT.splitlines()
    assert len(lines) == len(plain)
    for line, old in zip(lines, plain):
        expected = [rename.get(v, v) for v in dot_ids(old)]
        if "label=" in old:  # the label repeats the id
            expected[1] = f"{expected[0]} {expected[1].rsplit(' ', 1)[1]}"
        assert dot_ids(line) == expected
