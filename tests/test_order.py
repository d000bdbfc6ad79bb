from __future__ import annotations

import random

import pytest

from nasharcs import cli
from nasharcs.cycles import integer_rays, is_anti_nef, ray_basis
from nasharcs.errors import InconsistentRelation, SameVertex
from nasharcs.generators import an_graph
from nasharcs.graph import WeightedDualGraph, serialize_graph
from nasharcs.order import (
    RelationMatrix,
    Verdict,
    _verify_table,
    an_relation,
    hasse_edges,
    hasse_export,
    relation_matrix,
    serialize_relation_matrix,
)
from builders import e6_graph, random_negative_definite_graph
from oracles import dot_ids, order_cycle_witness


def test_relate_same_vertex():
    with pytest.raises(SameVertex):
        relation_matrix(an_graph(3)).get(2, 2)
    with pytest.raises(SameVertex):
        an_relation(4, 2, 2)


def _path(n: int, w: int) -> WeightedDualGraph:
    return WeightedDualGraph([(f"v{k}", w) for k in range(n)],
                             [(f"v{k}", f"v{k + 1}") for k in range(n - 1)])


# hand-made tables that no ray basis gives, one per check of `_verify_table`;
# its antisymmetry check cannot be reached this way, since `pairs()` yields
# the reverse of a LESS pair as GREATER
@pytest.mark.parametrize(
    "g, rays, message",
    [
        # neither column separates the pair either way
        (_path(2, 5), ((1, 1), (1, 1)), "compare equal"),
        # (1, 3) orders the pair, but is not anti-nef: 3 > 2 * 1 at v0
        (an_graph(2), ((1, 3), (1, 3)), "bad witness"),
        # anti-nef columns giving 0 < 1 and 1 < 2, yet 0 and 2 incomparable
        (_path(3, 5), ((2, 2, 1), (1, 2, 2), (1, 1, 2)), "transitivity"),
    ],
    ids=["no_witness", "not_anti_nef", "not_transitive"],
)
def test_verify_table_rejects_incoherent_tables(g, rays, message):
    with pytest.raises(InconsistentRelation, match=message):
        _verify_table(RelationMatrix(graph=g, rays=rays))


@pytest.mark.parametrize("n", range(2, 9))
def test_bamboo_all_incomparable(n):
    g = an_graph(n)
    rm = relation_matrix(g)
    for i in range(n):
        for j in range(i + 1, n):
            rel = rm.get(i, j)
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


def test_minimal_graph_columns_peak_on_diagonal(minimal_corpus):
    # rooted at j, column j of (-M)^-1 strictly decreases away from j when
    # w >= max(valence, 2) everywhere, so it separates (i, j) for every i
    # and the order criterion alone proves every pair of a minimal graph
    for g in [*minimal_corpus, *(an_graph(n) for n in range(2, 11))]:
        for j, column in enumerate(ray_basis(g).columns):
            assert all(column[i] < column[j] for i in range(g.n) if i != j)
        rm = relation_matrix(g)
        assert rm.open_pairs() == frozenset()
        assert all(rel.verdict is Verdict.INCOMPARABLE for _, rel in rm.pairs())


def test_own_column_decides_like_the_column_scan(negdef_corpus):
    # some ray column has z[i] < z[j] iff column j has it: along the i-j
    # path col_k[j] / col_k[i] grows strictly toward j, for every k
    rng = random.Random(1985)
    graphs = [*negdef_corpus,
              *(random_negative_definite_graph(rng, max_vertices=40) for _ in range(300))]
    strict = 0
    for g in graphs:
        columns = integer_rays(g)
        for (i, j), rel in relation_matrix(g).pairs():
            assert (order_cycle_witness(columns, i, j) is None) is (rel.witness_ij is None)
            assert rel.witness_ij in (None, columns[j])
            strict += rel.witness_ij is None
    # pairs with no witness one way occur, so both answers are compared
    assert strict > 100


def test_two_vertex_weights_2_3_incomparable():
    # exact inversion gives ray columns (3/5, 1/5) and (1/5, 2/5); each
    # column separates the pair in one direction, so neither closure
    # contains the other
    g = WeightedDualGraph([("E1", 2), ("E2", 3)], [("E1", "E2")])
    rel = relation_matrix(g).get(0, 1)
    assert rel.verdict is Verdict.INCOMPARABLE
    assert rel.witness_ij == (1, 2)
    assert rel.witness_ji == (3, 1)


def test_relation_matrix_a3_complete():
    rm = relation_matrix(an_graph(3))
    assert len(tuple(rm.pairs())) == 6
    assert {p for p, rel in rm.pairs() if rel.witness_ij is not None} == {
        (i, j) for i in range(3) for j in range(3) if i != j
    }
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
                assert relation_matrix(g).get(i, j).verdict is Verdict.INCOMPARABLE


def test_serialize_relation_matrix():
    doc = serialize_relation_matrix(relation_matrix(an_graph(2)))
    assert doc["vertices"] == ["E1", "E2"]
    pairs = list(doc["pairs"])
    assert len(pairs) == 2
    assert list(doc["non_inclusions"]) == [["E1", "E2"], ["E2", "E1"]]
    for p in pairs:
        assert p["verdict"] == "incomparable"


def test_serialized_arrays_are_lazy_and_reiterable():
    # pairs by vertex index and non_inclusions by id, as sorted lists were;
    # a serialized array is read once ("reiterable" stays in the test id):
    # serializing again makes the same items afresh
    # E6 with ids that sort opposite to the vertex order
    name = {f"v{k}": chr(ord("g") - k) for k in range(1, 7)}
    doc = serialize_graph(e6_graph())
    g = WeightedDualGraph([(name[v["id"]], v["w"]) for v in doc["vertices"]],
                          [(name[a], name[b]) for a, b in doc["edges"]])
    rm = relation_matrix(g)
    assert rm.open_pairs()
    doc = serialize_relation_matrix(rm)
    pairs = list(doc["pairs"])
    assert [(p["i"], p["j"]) for p in pairs] == [
        (g.ids[i], g.ids[j]) for (i, j), _ in sorted(rm.pairs())]
    again = serialize_relation_matrix(rm)
    second = list(again["pairs"])
    assert second == pairs and second[0] is not pairs[0]
    proven = {p for p, rel in rm.pairs() if rel.witness_ij is not None}
    expected = sorted([g.ids[a], g.ids[b]] for a, b in proven)
    assert list(doc["non_inclusions"]) == expected == list(again["non_inclusions"])
    assert not isinstance(doc["pairs"], (list, tuple))


def test_relation_table_is_read_while_written(monkeypatch, tmp_path):
    # serializing reads no pair; writing reads each ordered pair once for
    # "pairs" and once more for "non_inclusions"
    calls = []
    get = RelationMatrix.get
    monkeypatch.setattr(RelationMatrix, "get",
                        lambda rm, i, j: calls.append((i, j)) or get(rm, i, j))
    rng = random.Random(28)
    for g in (e6_graph(), an_graph(6), *(random_negative_definite_graph(rng) for _ in range(5))):
        rm = relation_matrix(g)
        calls.clear()
        doc = serialize_relation_matrix(rm)
        assert calls == []
        cli._emit(doc, str(tmp_path / "out.json"))
        assert len(calls) == 2 * g.n * (g.n - 1)


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
    g = WeightedDualGraph(
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
