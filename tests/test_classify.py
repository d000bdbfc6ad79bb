from __future__ import annotations

import pytest

from nasharcs.classify import (
    Rule,
    certify_minimal,
    contracts_to_empty,
    decompose_minimal,
    is_an,
    is_minimal,
    propagate,
    serialize_certificate,
    serialize_decomposition,
    supergraph_dot,
)
from nasharcs.errors import NotInImage, NotMinimal, NotRational, SameVertex
from nasharcs.generators import an_graph, e6_graph
from nasharcs.graph import make_graph, parse_graph
from nasharcs.order import NashRelation, an_relation

from oracles import dot_ids, exhaustive_contraction_orders, graph_state


def bamboo_322():
    return make_graph(
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
    star = make_graph(
        [("c", 2), ("a", 2), ("b", 2), ("d", 2)],
        [("c", "a"), ("c", "b"), ("c", "d")],
    )
    assert is_an(star) is None


# ------------------------------------------------------------------- contraction

def test_contract_single_weight_one():
    g = parse_graph({"vertices": [{"id": "a", "w": 1}], "edges": [], "auxiliary": True})
    assert contracts_to_empty(g).empty


def test_contract_single_weight_two_stuck():
    g = make_graph([("a", 2)], [])
    trace = contracts_to_empty(g)
    assert not trace.empty
    assert trace.steps == ()


@pytest.mark.parametrize("n", range(1, 21))
def test_bamboo_plus_one_contracts(n):
    # weight-2 bamboo with one weight-1 vertex on the end cascades to Empty
    vertices = [("p0", 1)] + [(f"p{k}", 2) for k in range(1, n + 1)]
    edges = [(f"p{k}", f"p{k + 1}") for k in range(n)]
    g = make_graph(vertices, edges, auxiliary=True)
    trace = contracts_to_empty(g)
    assert trace.empty
    assert len(trace.steps) == n + 1


def test_contract_trace_records_steps():
    g = make_graph([("a", 1), ("b", 2)], [("a", "b")], auxiliary=True)
    trace = contracts_to_empty(g)
    assert trace.empty
    assert [s.vertex for s in trace.steps] == ["a", "b"]
    assert trace.steps[0].neighbors == ("b",)


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
    g = make_graph([("a", 2), ("b", 2)], [("a", "b")])
    assert not contracts_to_empty(g).empty
    assert not exhaustive_contraction_orders(*graph_state(g))


# ----------------------------------------------------------------- decomposition

def test_decompose_bamboo_endpoints():
    n = 5
    g = an_graph(n)
    cert = decompose_minimal(g, "E1", f"E{n}")
    assert cert.bamboo == tuple(f"E{k}" for k in range(1, n + 1))
    # one weight-1 vertex at the far end, none at z_1, none inside
    assert cert.attached == {"E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 1}
    assert len(cert.pieces) == 1
    assert cert.designated == 0
    assert cert.m == n
    assert cert.positions == (1, n)
    assert cert.contraction.empty


def test_decompose_bamboo_322():
    g = bamboo_322()
    cert = decompose_minimal(g, "v1", "v3")
    assert cert.bamboo == ("v1", "v2", "v3")
    # z_1 = v1 has w = 3 > valence + 1 = 2, so one vertex; v3 is a leaf
    assert cert.attached == {"v1": 1, "v2": 0, "v3": 1}
    assert len(cert.pieces) == 2
    designated = cert.pieces[cert.designated]
    assert "v1" in designated and "v3" in designated
    assert cert.m == 3
    assert cert.positions == (1, 3)
    assert cert.contraction.empty


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
                assert cert.contraction.empty
                assert len(cert.pieces) == sum(cert.attached.values())
                designated = cert.pieces[cert.designated]
                assert g.ids[xi] in designated and g.ids[yi] in designated
                px, py = cert.positions
                assert 1 <= px < py <= cert.m
                # attachment counts per the weight-minus-valence rule
                z1 = cert.bamboo[0]
                for v in range(g.n):
                    vid = g.ids[v]
                    w, val = g.weights[v], g.valence(v)
                    expected = max(w - val - 1, 0) if vid == z1 else w - val
                    assert cert.attached[vid] == expected


def test_decomposition_serialization():
    cert = decompose_minimal(bamboo_322(), "v1", "v3")
    doc = serialize_decomposition(cert)
    assert doc["contracts_to_empty"] is True
    assert doc["m"] == 3
    dot = supergraph_dot(cert)
    assert "lightgrey" in dot and dot.startswith("graph")


# ------------------------------------------------------------------- propagation

def test_propagate_incomparable_proves_both():
    source = bamboo_322()
    quotient = an_graph(3)
    rel = an_relation(3, 0, 2)
    proven = propagate(source, quotient, {0: 0, 1: 1, 2: 2}, (0, 2), rel)
    assert set(proven) == {(0, 2), (2, 0)}


def test_propagate_less_proves_one_direction():
    source = bamboo_322()
    quotient = an_graph(3)
    rel = NashRelation((1, 2, 3), None)
    assert propagate(source, quotient, {0: 0, 1: 1, 2: 2}, (0, 1), rel) == [(0, 1)]


def test_propagate_missing_vertex():
    with pytest.raises(NotInImage):
        propagate(
            bamboo_322(), an_graph(3), {0: 0}, (0, 2), an_relation(3, 0, 2)
        )


def test_propagate_identity_mapping():
    g = an_graph(4)
    rel = an_relation(4, 1, 3)
    assert set(propagate(g, g, {k: k for k in range(4)}, (1, 3), rel)) == {
        (1, 3),
        (3, 1),
    }


def test_propagate_requires_rational():
    weights = [3, 2, 3, 3, 3, 2, 2, 2]
    edges = [(0, 1), (0, 4), (0, 6), (2, 6), (3, 6), (5, 6), (5, 7)]
    ids = [f"v{k}" for k in range(8)]
    bad = make_graph(list(zip(ids, weights)), [(ids[i], ids[j]) for i, j in edges])
    with pytest.raises(NotRational):
        propagate(bad, an_graph(2), {0: 0, 1: 1}, (0, 1), an_relation(2, 0, 1))


# ----------------------------------------------------------------- certification

def _all_proven(cert) -> bool:
    doc = serialize_certificate(cert)
    return doc["open_pairs"] == [] and all(p["status"] == "Proven" for p in doc["pairs"])


@pytest.mark.parametrize("n", range(2, 7))
def test_certify_bamboo(n):
    cert = certify_minimal(an_graph(n))
    assert _all_proven(cert)
    for entry in cert.entries.values():
        assert Rule.PROPAGATION in entry.rules
        # on a weight-2 bamboo the order criterion also settles every pair
        assert Rule.ORDER_CRITERION in entry.rules


def test_certify_bamboo_322():
    cert = certify_minimal(bamboo_322())
    assert len(cert.entries) == 6
    assert _all_proven(cert)
    assert all(Rule.PROPAGATION in e.rules for e in cert.entries.values())


def test_certify_rejects_non_minimal():
    with pytest.raises(NotMinimal):
        certify_minimal(e6_graph())


def test_certify_corpus_no_open_pairs(minimal_corpus):
    for g in minimal_corpus[:15]:
        cert = certify_minimal(g)
        assert _all_proven(cert)
        assert len(cert.entries) == g.n * (g.n - 1)


def test_order_criterion_subset_of_propagation(minimal_corpus):
    # both rules only ever assert non-inclusion; propagation covers every
    # pair, so any pair the order criterion proves is jointly covered
    from nasharcs.order import relation_matrix

    for g in minimal_corpus[:10]:
        cert = certify_minimal(g)
        assert _all_proven(cert)
        direct = relation_matrix(g).non_inclusions()
        for (a, b) in direct:
            entry = cert.entries[(g.ids[a], g.ids[b])]
            assert Rule.PROPAGATION in entry.rules
            assert Rule.ORDER_CRITERION in entry.rules


def test_certificate_serialization():
    doc = serialize_certificate(certify_minimal(an_graph(3)))
    assert doc["open_pairs"] == []
    assert len(doc["pairs"]) == 6
    assert all(p["status"] == "Proven" for p in doc["pairs"])
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
    g = make_graph([('v"1', 3), ("v2\\", 2), ("v3", 2)], [('v"1', "v2\\"), ("v2\\", "v3")])
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
