"""Differential tests: each fast path against the slow exact path it replaced."""
from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from math import lcm

import pytest

from nasharcs import arcs, classify, cli
from nasharcs.arcs import (
    POLY_X,
    POLY_Y,
    POLY_Z,
    TruncatedArc,
    contact_order,
    defining_polynomial,
    defining_residual,
    evaluate,
    sample_arc,
    separation_check,
)
from nasharcs.classify import certify_minimal, decompose_minimal
from nasharcs.cycles import integer_rays, order_cycle_witness, ray_basis
from nasharcs.errors import BadParameter, TruncationTooSmall
from nasharcs.generators import _tree_from_edges, an_graph, random_tree_edges
from nasharcs.graph import (
    graph_is_negative_definite,
    make_graph,
    rooted,
    serialize_graph,
    tree_determinants,
)
from nasharcs.order import relation_matrix
from oracles import (
    gaussian_determinant,
    intersection_rows,
    negative_definite_by_sylvester,
    ref_evaluate,
    ref_sample_arc,
    ref_separation_failures,
    ref_series_mul,
    ref_series_pow,
)
from test_golden import ARC_CASES, CASES, golden_argv


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


def _dense_det(g, vertices=None):
    """det(-M) of the induced subgraph, by dense Gaussian elimination."""
    rows = intersection_rows(g)
    keep = range(g.n) if vertices is None else sorted(vertices)
    return gaussian_determinant([[-rows[i][j] for j in keep] for i in keep])


def test_tree_pivots_match_dense_minors(negdef_corpus, indefinite_corpus):
    verdicts = {True: 0, False: 0}
    for g in negdef_corpus + indefinite_corpus:
        dense = negative_definite_by_sylvester(intersection_rows(g))
        assert graph_is_negative_definite(g) == dense, g
        if dense:
            assert tree_determinants(g, 0)[0][0] == _dense_det(g), g
        verdicts[dense] += 1
    assert verdicts[False] >= 40 and verdicts[True] >= 200


def test_subtree_determinants_match_dense(negdef_corpus):
    # D(v) is det(-M) of the subtree at v, B(v) the product over v's children
    for g in negdef_corpus[:40]:
        for root in {0, g.n - 1}:
            sub, below = tree_determinants(g, root)
            order, parent = rooted(g, root)
            subtree = {v: {v} for v in order}
            for v in reversed(order[1:]):
                subtree[parent[v]] |= subtree[v]
            for v in order:
                assert sub[v] == _dense_det(g, subtree[v]), (g, root, v)
                product = 1
                for c in order:
                    if parent[c] == v:
                        product *= sub[c]
                assert below[v] == product


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
        assert negative_definite_by_sylvester(intersection_rows(sg))
        assert ray_basis(sg).det == 1 == _dense_det(sg)


def test_tree_ray_basis_inverts_dense_matrix(indefinite_corpus, minimal_corpus):
    # the definite members of the light-weight corpus, and weight-1
    # supergraphs, which are larger and unimodular
    graphs = [g for g in indefinite_corpus if negative_definite_by_sylvester(intersection_rows(g))]
    for g in minimal_corpus[:12]:
        graphs.append(decompose_minimal(g, g.ids[0], g.ids[-1]).supergraph)
    assert len(graphs) >= 80
    for g in graphs:
        rays = ray_basis(g)
        assert rays.det == _dense_det(g), g
        rows = intersection_rows(g)
        for k, column in enumerate(rays.columns):
            product = [-sum(a * e for a, e in zip(row, column)) for row in rows]
            assert product == [rays.det * (v == k) for v in range(g.n)], g


def _fraction_scaled_columns(g):
    """Each ray column as Fractions e/det, times the lcm of its denominators."""
    rays = ray_basis(g)
    out = []
    for column in rays.columns:
        entries = [Q(e, rays.det) for e in column]
        mult = lcm(*(q.denominator for q in entries))
        out.append(tuple(int(q * mult) for q in entries))
    return out


def test_integer_rays_match_fraction_scaling(negdef_corpus, indefinite_corpus):
    graphs = negdef_corpus + [g for g in indefinite_corpus if graph_is_negative_definite(g)]
    for g in graphs:
        assert list(integer_rays(g)) == _fraction_scaled_columns(g), g


def _first_separating_column(g, i, j):
    for column in _fraction_scaled_columns(g):
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


# --- A_n arcs: integer series against the Fraction reference -------------

FRACTION_POLYS = (
    {(2, 1, 0): Q(1, 3), (0, 0, 3): Q(-5, 7), (1, 0, 2): 2, (0, 0, 0): Q(1, 2)},
    {(0, 2, 1): Q(7, 10), (3, 0, 0): -1, (1, 1, 1): Q(0)},
    {(1, 1, 0): Q(-11, 4), (0, 0, 5): Q(3, 8)},
)


def _arc_cases():
    """(n, i, trunc, seed): every family of n = 1..12 at the smallest,
    the CLI's default and an odd truncation, each with its own seed."""
    for n in range(1, 13):
        for i in range(1, n + 1):
            yield n, i, n + 2, 0
            yield n, i, 2 * n + 5, ("odd", i)
            yield n, i, 4 * (n + 1), ("cli", n * i)


def test_sample_arc_matches_fraction_reference():
    for n, i, trunc, seed in _arc_cases():
        arc = sample_arc(n, i, trunc, seed)
        ref = ref_sample_arc(n, i, trunc, seed)
        assert (arc.x, arc.y, arc.z) == ref, (n, i, trunc, seed)
        assert all(type(c) is Q for c in arc.x + arc.y + arc.z)
        residual = defining_residual(arc)
        assert residual == ref_evaluate(ref, trunc, defining_polynomial(n))
        assert all(c == 0 for c in residual)


def test_evaluate_matches_reference_on_sampled_arcs():
    for n, i, trunc, seed in _arc_cases():
        if n > 6:
            break
        arc = sample_arc(n, i, trunc, seed)
        coords = (arc.x, arc.y, arc.z)
        for f in (POLY_X, POLY_Y, POLY_Z) + FRACTION_POLYS:
            assert evaluate(arc, f) == ref_evaluate(coords, trunc, f), (n, i, f)


def _hand_built_arc(rng: random.Random) -> TruncatedArc:
    """An arc with arbitrary rationals, not on the surface; its series may
    be shorter or longer than trunc + 1 and may hold plain ints."""
    trunc = rng.randint(0, 14)

    def series():
        out = []
        for _ in range(rng.randint(0, trunc + 4)):
            c = Q(rng.randint(-40, 40), rng.randint(1, 30))
            out.append(c.numerator if c.denominator == 1 and rng.random() < 0.5 else c)
        return tuple(out)

    return TruncatedArc(n=2, family=1, trunc=trunc, x=series(), y=series(), z=series())


def test_evaluate_matches_reference_on_hand_built_arcs():
    rng = random.Random(4242)
    for _ in range(150):
        arc = _hand_built_arc(rng)
        coords = (arc.x, arc.y, arc.z)
        polys = (POLY_X, POLY_Y, POLY_Z, defining_polynomial(rng.randint(1, 6))) + FRACTION_POLYS
        for f in polys:
            got = evaluate(arc, f)
            assert got == ref_evaluate(coords, arc.trunc, f)
            assert len(got) == arc.trunc + 1 and all(type(c) is Q for c in got)
        expected = ref_evaluate(coords, arc.trunc, defining_polynomial(arc.n))
        assert defining_residual(arc) == expected
        first = next((k for k, c in enumerate(expected) if c != 0), None)
        assert contact_order(arc, defining_polynomial(arc.n)) == first


def test_separation_check_matches_reference():
    for n, i, j, trunc, seed in (
        (2, 1, 2, 4, 0), (3, 1, 3, 16, 5), (5, 2, 4, 7, "s"), (8, 1, 8, 36, 9), (12, 6, 7, 14, 3),
    ):
        rep = separation_check(n, i, j, 6, trunc, seed)
        bad = ref_separation_failures(n, i, j, 6, trunc, seed)
        assert rep["counterexamples"] == bad
        assert rep["passed"] is (not bad)


def test_separation_check_validates_truncation_only_when_sampling():
    with pytest.raises(TruncationTooSmall):
        separation_check(3, 1, 2, samples=1, trunc=4, seed=0)
    for samples in (0, -4):
        with pytest.raises(BadParameter):
            separation_check(3, 1, 2, samples=samples, trunc=4, seed=0)


def test_unit_power_recurrence_matches_repeated_products():
    rng = random.Random(77)
    for _ in range(60):
        order = rng.randint(0, 20)
        v = [rng.choice((1, -1, 2, -3, 5))] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 25))]
        m = rng.randint(0, 14)
        expected = ref_series_pow([Q(c) for c in v], m, order)
        assert arcs._unit_pow(v, m, order) == list(expected)
        assert arcs._int_pow(v, m, order) == list(expected)
        w = [rng.randint(-9, 9) for _ in range(rng.randint(0, 25))]
        assert arcs._int_mul(v, w, order) == list(ref_series_mul(v, w, order))


# --- report emitter: chunked writer against json.dumps(indent=2) -----------

def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reports(monkeypatch, tmp_path, negdef_corpus) -> list:
    """The documents the CLI hands to `_emit` for the golden graph cases and
    `an-arcs` argument sets, and for `analyze` and `order` on `negdef_corpus`."""
    docs: list = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out: docs.append(doc))
    for (name, command), code in CASES.items():
        assert cli.main(golden_argv(name, command)) == code
    for args, code in ARC_CASES.values():
        assert cli.main(["an-arcs", *args]) == code
    path = tmp_path / "g.json"
    for g in negdef_corpus:
        path.write_text(json.dumps(serialize_graph(g)))
        for command in ("analyze", "order"):
            assert cli.main([command, str(path)]) in (0, 1)
    monkeypatch.undo()
    return docs


# characters JSON escapes, lone and paired surrogates, and characters whose
# escaped form sorts differently from the raw one (escaped, "\u00e9" sorts before "~")
_CHARS = ["a", "b", "~", "\x7f", "\u00e9", "\x00", "\n", '"', "\\", "/",
          "\ud800", "\udfff", "\uffff", "\U0001f600", "\u2028"]
_INTS = [0, 1, -1, 7, -42, 2**63, 2**64 + 5, -(2**70), 10**40]


def _random_str(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 4)))


def _random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice([None, True, False, rng.choice(_INTS), _random_str(rng)])
    if roll < 0.5:
        ints = [rng.choice(_INTS) for _ in range(rng.randint(0, 6))]
        if ints and rng.random() < 0.3:
            ints[rng.randrange(len(ints))] = rng.choice([True, False, None])
        return ints if rng.random() < 0.7 else tuple(ints)
    if roll < 0.6:
        return [_random_str(rng) for _ in range(rng.randint(0, 4))]
    if roll < 0.8:
        items = [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return items if rng.random() < 0.7 else tuple(items)
    return {_random_str(rng): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))}


def _random_documents(count: int) -> list:
    rng = random.Random(6060)
    docs = [{}, {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
            {k: k for k in ("~", "\u00e9", "\uffff", "\U0001f600", "\\", "\x7f")}]
    while len(docs) < count:
        docs.append({_random_str(rng): _random_value(rng, 1) for _ in range(rng.randint(0, 6))})
    return docs


def test_emit_matches_json_dumps(monkeypatch, tmp_path, capsys, negdef_corpus):
    reports = _reports(monkeypatch, tmp_path, negdef_corpus)
    assert len(reports) == len(CASES) + len(ARC_CASES) + 2 * len(negdef_corpus)
    out = tmp_path / "out.json"
    capsys.readouterr()
    for doc in reports + _random_documents(500):
        expected = _dumps(doc)
        cli._emit(doc, str(out))
        assert out.read_bytes() == expected.encode("utf-8")
        cli._emit(doc, None)
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "doc",
    [{"a": 1.5}, {"a": [1, 2.0]}, {"a": {"b": [{"c": float("nan")}]}},
     {1: 2}, {"a": {(1,): 2}}, {"a": 1, 2: 3}],
    ids=["float", "float_in_int_array", "nested_nan", "int_key", "tuple_key", "mixed_keys"],
)
def test_emit_rejects_float_and_non_str_key(doc, tmp_path):
    with pytest.raises(TypeError):
        cli._emit(doc, str(tmp_path / "out.json"))


def test_emit_writes_in_bounded_chunks(monkeypatch):
    class Recorder:
        def __init__(self):
            self.writes: list[str] = []

        def write(self, text: str) -> int:
            self.writes.append(text)
            return len(text)

    rng = random.Random(77)
    doc = {"pairs": [{"i": str(k), "w": [rng.randrange(10**6) for _ in range(40)]}
                     for k in range(8000)]}
    largest = max(map(len, cli._pieces(doc, "\n", {})))
    stream = Recorder()
    monkeypatch.setattr("sys.stdout", stream)
    cli._emit(doc, None)
    assert "".join(stream.writes) == _dumps(doc)
    assert len(stream.writes) >= 3
    assert max(map(len, stream.writes)) < cli.CHUNK + largest
