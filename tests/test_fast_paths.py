"""Differential tests: each fast path against the slow exact path it replaced."""
from __future__ import annotations

import random

import pytest

from nasharcs import classify
from nasharcs.classify import certify_minimal, decompose_minimal
from nasharcs.cycles import order_cycle_witness, ray_basis, scale_to_integer
from nasharcs.generators import _tree_from_edges, an_graph, random_tree_edges
from nasharcs.graph import (
    graph_is_negative_definite,
    intersection_matrix,
    is_negative_definite,
    make_graph,
)
from nasharcs.order import relation_matrix


def _star(hub_first: bool, leaves: int, hub_weight: int = 2):
    hub = [("hub", hub_weight)]
    rim = [(f"l{k}", 2) for k in range(leaves)]
    vertices = hub + rim if hub_first else rim + hub
    return make_graph(vertices, [("hub", f"l{k}") for k in range(leaves)])


@pytest.fixture(scope="module")
def indefinite_corpus():
    """Stars and seeded trees with light weights; 53 of the 124 are not definite."""
    rng = random.Random(808)
    graphs = [_star(True, 5), _star(False, 5), _star(True, 4), _star(True, 8, 3)]
    for _ in range(120):
        n = rng.randint(2, 14)
        weights = [rng.choice((2, 2, 2, 2, 2, 3)) for _ in range(n)]
        graphs.append(_tree_from_edges(n, random_tree_edges(n, rng), weights))
    return graphs


def test_tree_pivots_match_dense_minors(negdef_corpus, indefinite_corpus):
    verdicts = {True: 0, False: 0}
    for g in negdef_corpus + indefinite_corpus:
        dense = is_negative_definite(intersection_matrix(g))
        assert graph_is_negative_definite(g) == dense, g
        verdicts[dense] += 1
    assert verdicts[False] >= 40 and verdicts[True] >= 200


def test_star_with_hub_at_index_zero_is_indefinite():
    g = _star(True, 5)
    assert g.ids[0] == "hub"
    assert not graph_is_negative_definite(g)
    assert graph_is_negative_definite(_star(True, 3))


def test_tree_pivots_on_weight_one_supergraphs(minimal_corpus):
    # supergraphs carry weight-1 vertices and blow down to nothing, so
    # their intersection matrices are unimodular and negative definite
    for g in minimal_corpus[:10]:
        sg = decompose_minimal(g, g.ids[0], g.ids[-1]).supergraph
        assert graph_is_negative_definite(sg)
        assert is_negative_definite(intersection_matrix(sg))


def _first_separating_column(g, i, j):
    rays = ray_basis(g)
    for k in range(g.n):
        column = scale_to_integer(rays.column(k))
        if column[i] < column[j]:
            return column
    return None


def test_witness_is_first_separating_integer_column(negdef_corpus):
    for g in negdef_corpus:
        for i in range(g.n):
            for j in range(g.n):
                if i != j:
                    expected = _first_separating_column(g, i, j)
                    assert order_cycle_witness(g, i, j) == expected


def test_relation_lookup_matches_stored_pairs(negdef_corpus):
    for g in negdef_corpus[:40]:
        rm = relation_matrix(g)
        for pair, rel in rm.pairs():
            assert rm.get(*pair) is rel


def _reference_decomposition(g, x, y):
    """The per-pair construction: fresh supergraph, tree paths, first-match scan."""
    xi, yi = g.index_of(x), g.index_of(y)
    core = list(g.path(xi, yi))
    head = classify._extend_to_leaf(g, core, core[0])
    tail = classify._extend_to_leaf(g, core, core[-1])
    bamboo = list(reversed(head)) + core + tail
    z1 = bamboo[0]
    vertices = list(zip(g.ids, g.weights))
    edges = [(g.ids[i], g.ids[j]) for i, j in sorted(g.edges)]
    attached = {}
    for v in range(g.n):
        w, val = g.weights[v], len(g.neighbors(v))
        count = max(w - val - 1, 0) if v == z1 else w - val
        attached[g.ids[v]] = count
        for k in range(count):
            vertices.append((f"{g.ids[v]}+{k + 1}", 1))
            edges.append((g.ids[v], f"{g.ids[v]}+{k + 1}"))
    sg = make_graph(vertices, edges, auxiliary=True)
    pieces = tuple(
        tuple(sg.ids[u] for u in sg.path(sg.index_of(g.ids[z1]), sg.index_of(vid)))
        for vid, w in vertices
        if w == 1
    )
    designated = next(k for k, p in enumerate(pieces) if x in p and y in p)
    positions = (bamboo.index(xi) + 1, bamboo.index(yi) + 1)
    return sg, attached, pieces, designated, len(bamboo), positions


def test_leaf_embeddings_match_per_pair_construction(minimal_corpus):
    for g in minimal_corpus[:25]:
        for xi in range(g.n):
            for yi in range(g.n):
                if xi == yi:
                    continue
                cert = decompose_minimal(g, g.ids[xi], g.ids[yi])
                got = (
                    cert.supergraph,
                    cert.attached,
                    cert.pieces,
                    cert.designated,
                    cert.m,
                    cert.positions,
                )
                assert got == _reference_decomposition(g, g.ids[xi], g.ids[yi])
                assert cert.contraction.empty


def test_one_contraction_per_starting_leaf(minimal_corpus, monkeypatch):
    calls = []
    original = classify.contracts_to_empty

    def counting(sg):
        calls.append(sg)
        return original(sg)

    monkeypatch.setattr(classify, "contracts_to_empty", counting)
    for g in minimal_corpus[:10] + [an_graph(7)]:
        fresh = make_graph(list(zip(g.ids, g.weights)),
                           [(g.ids[i], g.ids[j]) for i, j in g.edges])
        calls.clear()
        certify_minimal(fresh)
        assert 0 < len(calls) <= len(fresh.leaves())


def test_memo_is_per_instance_and_outside_equality():
    a, b = an_graph(4), an_graph(4)
    ray_basis(a)
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b)
