from __future__ import annotations

import pytest

from nasharcs.cycles import is_anti_nef
from nasharcs.errors import SameVertex
from nasharcs.generators import an_graph, e6_graph
from nasharcs.graph import make_graph, serialize_graph
from nasharcs.order import (
    Verdict,
    an_relation,
    hasse_edges,
    hasse_export,
    relate,
    relation_matrix,
    serialize_relation_matrix,
)
from oracles import dot_ids


def test_relate_same_vertex():
    with pytest.raises(SameVertex):
        relate(an_graph(3), 2, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_bamboo_all_incomparable(n):
    g = an_graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            rel = relate(g, i, j)
            assert rel.verdict is Verdict.INCOMPARABLE
            assert is_anti_nef(g, rel.witness_ij) and rel.witness_ij[i] < rel.witness_ij[j]
            assert is_anti_nef(g, rel.witness_ji) and rel.witness_ji[j] < rel.witness_ji[i]


@pytest.mark.parametrize("n", range(2, 9))
def test_bamboo_canonical_witnesses_verify(n):
    # order vectors of the two coordinate functions: (1..n) and (n..1)
    g = an_graph(n)
    up = tuple(range(1, n + 1))
    down = tuple(range(n, 0, -1))
    assert is_anti_nef(g, up) and is_anti_nef(g, down)
    for i in range(n):
        for j in range(i + 1, n):
            assert up[i] < up[j]
            assert down[j] < down[i]


def test_two_vertex_weights_2_3_incomparable():
    # exact inversion gives ray columns (3/5, 1/5) and (1/5, 2/5); each
    # column separates the pair in one direction, so neither closure
    # contains the other
    g = make_graph([("E1", 2), ("E2", 3)], [("E1", "E2")])
    rel = relate(g, 0, 1)
    assert rel.verdict is Verdict.INCOMPARABLE
    assert rel.witness_ij == (1, 2)
    assert rel.witness_ji == (3, 1)


def test_relation_matrix_a3_complete():
    rm = relation_matrix(an_graph(3))
    assert len(tuple(rm.pairs())) == 6
    assert rm.non_inclusions() == frozenset(
        (i, j) for i in range(3) for j in range(3) if i != j
    )
    assert not rm.open_pairs()


def test_relation_matrix_a1_empty():
    rm = relation_matrix(an_graph(1))
    assert tuple(rm.pairs()) == ()
    assert not rm.open_pairs()


def test_relation_matrix_verdicts_recomputable_from_witnesses(negdef_corpus):
    for g in negdef_corpus[:60]:
        rm = relation_matrix(g)
        ordered = {(i, j) for i in range(g.n) for j in range(g.n) if i != j}
        with_ij = {pair for pair, rel in rm.pairs() if rel.witness_ij is not None}
        assert rm.non_inclusions() == with_ij
        assert rm.open_pairs() == ordered - with_ij
        for (i, j), rel in rm.pairs():
            assert rm.get(j, i) == rel.reversed()
            has_ij = rel.witness_ij is not None
            has_ji = rel.witness_ji is not None
            if has_ij and has_ji:
                assert rel.verdict is Verdict.INCOMPARABLE
            elif has_ij:
                assert rel.verdict is Verdict.LESS
            else:
                assert has_ji and rel.verdict is Verdict.GREATER
            for lo, hi, w in ((i, j, rel.witness_ij), (j, i, rel.witness_ji)):
                if w is not None:
                    assert is_anti_nef(g, w)
                    assert w[lo] < w[hi]


def test_witness_scaling_invariance(negdef_corpus):
    for g in negdef_corpus[:20]:
        rm = relation_matrix(g)
        for (i, j), rel in rm.pairs():
            if rel.witness_ij is not None:
                tripled = tuple(3 * c for c in rel.witness_ij)
                assert is_anti_nef(g, tripled) and tripled[i] < tripled[j]


def test_less_transitive_over_corpus(negdef_corpus):
    for g in negdef_corpus:
        rm = relation_matrix(g)
        less = {
            pair for pair, rel in rm.pairs() if rel.verdict is Verdict.LESS
        }
        for (a, b) in less:
            for c in range(g.n):
                if (b, c) in less:
                    assert (a, c) in less


E6_LESS = {
    (0, 1), (0, 2), (0, 3),
    (4, 1), (4, 2), (4, 3),
    (5, 1), (5, 2), (5, 3),
    (1, 2), (3, 2),
}

E6_HASSE = [
    (0, 1), (0, 3),
    (1, 2), (3, 2),
    (4, 1), (4, 3),
    (5, 1), (5, 3),
]


def test_e6_relation_table():
    # frozen from the exact inverse of -M on the canonical labeling
    # (chain v1..v5 with v6 on v3); v1, v5, v6 lie below v2, v3, v4 and
    # are mutually incomparable, v2 and v4 are incomparable, v3 is top
    rm = relation_matrix(e6_graph())
    less = {pair for pair, rel in rm.pairs() if rel.verdict is Verdict.LESS}
    assert less == E6_LESS


def test_e6_hasse_edges():
    rm = relation_matrix(e6_graph())
    assert sorted(hasse_edges(rm)) == sorted(E6_HASSE)


def test_hasse_export_a3_has_no_edges():
    rm = relation_matrix(an_graph(3))
    dot = hasse_export(rm)
    assert dot.startswith("digraph")
    assert "->" not in dot
    assert dot.count('"E') == 3


def test_hasse_export_e6_edges():
    dot = hasse_export(relation_matrix(e6_graph()))
    assert dot.count("->") == len(E6_HASSE)
    assert '"v1" -> "v2"' in dot


def test_an_relation_closed_form_matches_engine():
    for m in range(2, 7):
        g = an_graph(m)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                closed = an_relation(m, i, j)
                assert closed.verdict is Verdict.INCOMPARABLE
                assert is_anti_nef(g, closed.witness_ij)
                assert closed.witness_ij[i] < closed.witness_ij[j]
                assert relate(g, i, j).verdict is Verdict.INCOMPARABLE


def test_serialize_relation_matrix():
    doc = serialize_relation_matrix(relation_matrix(an_graph(2)))
    assert doc["vertices"] == ["E1", "E2"]
    assert len(doc["pairs"]) == 2
    assert sorted(doc["non_inclusions"]) == [["E1", "E2"], ["E2", "E1"]]
    for p in doc["pairs"]:
        assert p["verdict"] == "incomparable"


E6_DOT = """digraph divisor_order {
  "v1";
  "v2";
  "v3";
  "v4";
  "v5";
  "v6";
  "v1" -> "v2";
  "v1" -> "v4";
  "v2" -> "v3";
  "v4" -> "v3";
  "v5" -> "v2";
  "v5" -> "v4";
  "v6" -> "v2";
  "v6" -> "v4";
}
"""


def test_hasse_export_plain_ids_unchanged():
    assert hasse_export(relation_matrix(e6_graph())) == E6_DOT


def test_hasse_export_escapes_quotes_and_backslashes():
    doc = serialize_graph(e6_graph())
    rename = {"v1": 'v"1', "v2": "v2\\", "v5": 'say "hi"\\n'}
    g = make_graph(
        [(rename.get(v["id"], v["id"]), v["w"]) for v in doc["vertices"]],
        [(rename.get(a, a), rename.get(b, b)) for a, b in doc["edges"]],
    )
    lines = hasse_export(relation_matrix(g)).splitlines()
    assert lines[1] == r'  "v\"1";'
    assert lines[2] == r'  "v2\\";'
    plain = E6_DOT.splitlines()
    assert len(lines) == len(plain)
    for line, old in zip(lines, plain):
        assert dot_ids(line) == [rename.get(v, v) for v in dot_ids(old)]
