from __future__ import annotations

import json
import random

import pytest

from nasharcs.arcs import sample_arc
from nasharcs.classify import certify_minimal, contracts_to_empty, decompose_minimal
from nasharcs.cycles import ray_basis
from nasharcs.errors import BadWeight, MalformedDocument, NotATree
from nasharcs.generators import an_graph
from nasharcs.graph import (
    WeightedDualGraph,
    graph_is_negative_definite,
    parse_graph,
    serialize_graph,
    tree_determinants,
)
from nasharcs.order import relation_matrix

from builders import (
    _tree_from_edges,
    graph_fields,
    random_negative_definite_graph,
    random_tree_edges,
)
from oracles import intersection_rows, negative_definite_by_minors, negative_definite_by_sylvester

A2_DOC = {
    "vertices": [{"id": "E1", "w": 2}, {"id": "E2", "w": 2}],
    "edges": [["E1", "E2"]],
}


def test_parse_a2():
    g = parse_graph(A2_DOC)
    assert g.ids == ("E1", "E2")
    assert g.weights == (2, 2)
    assert g.edges == frozenset({(0, 1)})


def test_parse_from_json_text():
    g = parse_graph(json.dumps(A2_DOC))
    assert g.n == 2


def test_self_loop_rejected():
    doc = {"vertices": [{"id": "E1", "w": 2}], "edges": [["E1", "E1"]]}
    with pytest.raises(MalformedDocument):
        parse_graph(doc)


def test_multi_edge_rejected():
    doc = {
        "vertices": [{"id": "a", "w": 2}, {"id": "b", "w": 2}],
        "edges": [["a", "b"], ["b", "a"]],
    }
    with pytest.raises(MalformedDocument):
        parse_graph(doc)


def test_disconnected_rejected():
    doc = {
        "vertices": [{"id": "a", "w": 2}, {"id": "b", "w": 2}],
        "edges": [],
    }
    with pytest.raises(NotATree):
        parse_graph(doc)


def test_cycle_rejected():
    doc = {
        "vertices": [{"id": v, "w": 2} for v in "abc"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }
    with pytest.raises(NotATree):
        parse_graph(doc)


def test_cycle_plus_isolated_vertex_rejected():
    # n - 1 edges, so only the connectivity walk can reject it
    doc = {
        "vertices": [{"id": v, "w": 2} for v in "abcd"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }
    with pytest.raises(NotATree):
        parse_graph(doc)


def test_bad_weight_rejected():
    with pytest.raises(BadWeight):
        parse_graph({"vertices": [{"id": "a", "w": 0}], "edges": []})


def test_weight_one_needs_auxiliary_flag():
    doc = {"vertices": [{"id": "a", "w": 1}], "edges": []}
    with pytest.raises(BadWeight):
        parse_graph(doc)
    g = parse_graph({**doc, "auxiliary": True})
    assert g.auxiliary


def _doc(vertices, edges):
    return {"vertices": [{"id": v, "w": w} for v, w in vertices], "edges": edges}


# a document with two faults reports the first one a reader meets: duplicate
# ids, then each edge in order (unknown endpoint, self-loop, multi-edge), then
# an empty vertex list, then each weight, then the tree shape
@pytest.mark.parametrize("doc, error, message", [
    (_doc([("a", 2), ("a", 2)], [["a", "z"]]),
     MalformedDocument, "duplicate vertex ids"),
    (_doc([("a", 0), ("b", 2)], [["a", "z"]]),
     MalformedDocument, "edge ('a', 'z') references unknown vertex"),
    (_doc([("a", 2), ("b", 2), ("c", 2)], [["a", "b"], ["b", "c"], ["c", "a"], ["a", "a"]]),
     MalformedDocument, "self-loop on 'a'"),
    (_doc([("a", 1), ("b", 2)], [["a", "b"], ["b", "a"]]),
     MalformedDocument, "multi-edge between 'b' and 'a'"),
    (_doc([], [["a", "b"]]),
     MalformedDocument, "edge ('a', 'b') references unknown vertex"),
    (_doc([("a", 0), ("b", 2)], []),
     BadWeight, "weight 0 must be an integer >= 1"),
], ids=["duplicate+unknown", "unknown+weight", "cycle+self-loop", "multi-edge+weight-1",
        "edge-on-no-vertices", "weight-0+disconnected"])
def test_first_of_two_faults_is_reported(doc, error, message):
    with pytest.raises(error) as info:
        parse_graph(doc)
    assert type(info.value) is error and str(info.value) == message


def test_garbage_document():
    with pytest.raises(MalformedDocument):
        parse_graph("not json {")
    with pytest.raises(MalformedDocument):
        parse_graph({"edges": []})
    with pytest.raises(MalformedDocument):
        parse_graph({"vertices": [{"id": "a"}], "edges": []})


def test_parse_serialize_roundtrip():
    g = parse_graph(A2_DOC)
    assert graph_fields(parse_graph(serialize_graph(g))) == graph_fields(g)


def test_roundtrip_on_random_corpus():
    rng = random.Random(5)
    for _ in range(25):
        g = random_negative_definite_graph(rng, max_vertices=9)
        assert graph_fields(parse_graph(serialize_graph(g))) == graph_fields(g)


# the dense matrix is the tests' reference, so it is pinned on known cases
def test_intersection_matrix_a2():
    g = parse_graph(A2_DOC)
    assert intersection_rows(g) == [[-2, 1], [1, -2]]


def test_intersection_matrix_single_vertex():
    g = WeightedDualGraph([("E1", 2)], [])
    assert intersection_rows(g) == [[-2]]


def test_intersection_matrix_a3():
    m = intersection_rows(an_graph(3))
    assert m == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]


def test_intersection_matrix_shape_invariants():
    rng = random.Random(11)
    for _ in range(20):
        g = random_negative_definite_graph(rng, max_vertices=8)
        m = intersection_rows(g)
        assert all(m[i][j] == m[j][i] for i in range(g.n) for j in range(i))
        assert all(m[i][i] < 0 for i in range(g.n))


def test_negative_definite_a2():
    g = parse_graph(A2_DOC)
    assert graph_is_negative_definite(g)
    sub, below = tree_determinants(g, 0)
    assert (sub, below) == ([3, 2], [2, 1])  # det(-M) = 3 at the root


def test_negative_definite_scalars():
    assert negative_definite_by_sylvester([[-1]])
    assert not negative_definite_by_sylvester([[0]])
    assert graph_is_negative_definite(WeightedDualGraph([("E1", 1)], [], auxiliary=True))
    assert tree_determinants(WeightedDualGraph([("E1", 1)], [], auxiliary=True), 0) == ([1], [1])


def test_star_not_negative_definite():
    # weight-2 star with 5 leaves: (-M) has a nonpositive minor
    center = [("c", 2)] + [(f"l{k}", 2) for k in range(5)]
    g = WeightedDualGraph(center, [("c", f"l{k}") for k in range(5)])
    assert not graph_is_negative_definite(g)
    assert all(tree_determinants(g, root) is None for root in range(g.n))
    assert not negative_definite_by_minors(intersection_rows(g))
    assert not negative_definite_by_sylvester(intersection_rows(g))


def test_a2_negative_definite_matches_oracle():
    rows = intersection_rows(parse_graph(A2_DOC))
    assert negative_definite_by_minors(rows)
    assert negative_definite_by_sylvester(rows)


def test_negative_definite_matches_minor_oracle():
    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = random_tree_edges(n, rng)
        weights = [rng.randint(2, 4) for _ in range(n)]
        g = _tree_from_edges(n, edges, weights)
        verdict = graph_is_negative_definite(g)
        assert verdict == negative_definite_by_minors(intersection_rows(g))
        seen[verdict] += 1
    assert seen[True] > 0  # the non-definite side is covered by the star test


def test_unknown_vertex_lookup():
    g = parse_graph(A2_DOC)
    with pytest.raises(MalformedDocument):
        g.index_of("nope")


def test_tree_path():
    g = an_graph(5)
    assert g.path(0, 4) == (0, 1, 2, 3, 4)
    assert g.path(3, 1) == (3, 2, 1)
    assert g.path(2, 2) == (2,)


@pytest.mark.parametrize("field", ["ids", "weights", "edges", "auxiliary"])
def test_graph_fields_are_read_only(field):
    g = an_graph(3)
    before = getattr(g, field)
    with pytest.raises(AttributeError):
        setattr(g, field, before)
    with pytest.raises(AttributeError):
        delattr(g, field)
    assert getattr(g, field) is before
    assert graph_fields(g) == graph_fields(an_graph(3))


RECORDS = (
    "RayBasis", "NashRelation", "RelationMatrix", "BlowDownStep",
    "ContractionTrace", "DecompositionCertificate", "Certificate",
    "TruncatedArc",
)


def _record(name):
    """An instance of the record class `name`, and one of its fields."""
    g = an_graph(3)
    rm = relation_matrix(g)
    cert = decompose_minimal(g, "E1", "E3")
    return {
        "RayBasis": (ray_basis(g), "det"),
        "NashRelation": (rm.get(0, 1), "witness_ij"),
        "RelationMatrix": (rm, "rays"),
        "BlowDownStep": (contracts_to_empty(cert.supergraph).steps[0], "vertex"),
        "ContractionTrace": (contracts_to_empty(cert.supergraph), "empty"),
        "DecompositionCertificate": (cert, "bamboo"),
        "Certificate": (certify_minimal(g), "rays"),
        "TruncatedArc": (sample_arc(2, 1, 4, 0), "x"),
    }[name]


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(name):
    record, field = _record(name)
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before
