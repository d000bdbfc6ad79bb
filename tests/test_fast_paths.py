"""Differential tests: each fast path against the slow exact path it replaced."""
from __future__ import annotations

import json
import random
import sys
import tracemalloc
from collections.abc import Iterator
from fractions import Fraction as Q
from functools import partial
from itertools import islice
from math import lcm

import pytest

from nasharcs import arcs, classify, cli
from nasharcs.arcs import defining_residual, sample_arc, separation_check
from nasharcs.classify import certify_minimal, decompose_minimal, serialize_decomposition
from nasharcs.cycles import integer_rays, ray_basis
from nasharcs.errors import TruncationTooSmall
from nasharcs.generators import an_graph
from nasharcs.graph import (
    WeightedDualGraph,
    graph_is_negative_definite,
    rooted,
    serialize_graph,
    tree_determinants,
)
from nasharcs.order import relation_matrix
from builders import _tree_from_edges, graph_fields, random_tree_edges
from oracles import (
    attached_ids_by_taken_set,
    contract_by_rescan,
    gaussian_determinant,
    intersection_rows,
    negative_definite_by_sylvester,
    ref_evaluate,
    ref_sample_arc,
    ref_separation_failures,
    ref_series_mul,
    ref_series_pow,
)
from test_classify import _benchmark_minimal_graphs
from test_golden import ARC_CASES, CASES, assert_same, golden_argv


def _star(hub_first: bool, leaves: int, hub_weight: int = 2):
    hub = [("hub", hub_weight)]
    rim = [(f"l{k}", 2) for k in range(leaves)]
    vertices = hub + rim if hub_first else rim + hub
    return WeightedDualGraph(vertices, [("hub", f"l{k}") for k in range(leaves)])


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


def test_witness_is_own_integer_column(negdef_corpus):
    # the witness for i below j is column j, when column j has i below j
    for g in negdef_corpus:
        columns = _fraction_scaled_columns(g)
        rm = relation_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                if i != j:
                    expected = columns[j] if columns[j][i] < columns[j][j] else None
                    assert rm.get(i, j).witness_ij == expected


def test_relation_lookup_matches_pairs(negdef_corpus):
    # both read the same cached columns, so the emitter finds a witness by identity
    for g in negdef_corpus[:40]:
        rm = relation_matrix(g)
        rays = integer_rays(g)
        for (i, j), rel in rm.pairs():
            assert rm.get(i, j) == rel
            assert rel.witness_ij is None or rel.witness_ij is rays[j]
            assert rel.witness_ji is None or rel.witness_ji is rays[i]


def _reference_extend_to_leaf(g, path, end):
    """Prolong the path beyond `end` by smallest-index neighbors off the path, to a leaf."""
    on_path = set(path)
    tail = [end]
    while True:
        options = [u for u in g.adj[tail[-1]] if u not in on_path]
        if not options:
            return tail[1:]
        nxt = min(options)
        on_path.add(nxt)
        tail.append(nxt)


def _reference_decomposition(g, x, y):
    """The per-pair construction: fresh supergraph, tree paths, first-match scan."""
    xi, yi = g.index_of(x), g.index_of(y)
    core = list(g.path(xi, yi))
    head = _reference_extend_to_leaf(g, core, core[0])
    tail = _reference_extend_to_leaf(g, core, core[-1])
    bamboo = list(reversed(head)) + core + tail
    z1 = bamboo[0]
    vertices = list(zip(g.ids, g.weights))
    edges = [(g.ids[i], g.ids[j]) for i, j in sorted(g.edges)]
    attached = {}
    for v in range(g.n):
        w, val = g.weights[v], len(g.adj[v])
        count = max(w - val - 1, 0) if v == z1 else w - val
        attached[g.ids[v]] = count
        for k in range(count):
            vertices.append((f"{g.ids[v]}+{k + 1}", 1))
            edges.append((g.ids[v], f"{g.ids[v]}+{k + 1}"))
    sg = WeightedDualGraph(vertices, edges, auxiliary=True)
    pieces = tuple(
        tuple(sg.ids[u] for u in sg.path(sg.index_of(g.ids[z1]), sg.index_of(vid)))
        for vid, w in vertices
        if w == 1
    )
    designated = next(k for k, p in enumerate(pieces) if x in p and y in p)
    positions = (bamboo.index(xi) + 1, bamboo.index(yi) + 1)
    return graph_fields(sg), attached, pieces, designated, len(bamboo), positions


def test_leaf_embeddings_match_per_pair_construction(minimal_corpus):
    for g in minimal_corpus[:25]:
        for xi in range(g.n):
            for yi in range(g.n):
                if xi == yi:
                    continue
                cert = decompose_minimal(g, g.ids[xi], g.ids[yi])
                doc = serialize_decomposition(cert)
                got = (
                    graph_fields(cert.supergraph),
                    doc["attached"],
                    tuple(doc["pieces"]),
                    cert.designated,
                    cert.m,
                    cert.positions,
                )
                assert got == _reference_decomposition(g, g.ids[xi], g.ids[yi])
                assert doc["contracts_to_empty"]


def test_one_contraction_per_starting_leaf(minimal_corpus, monkeypatch):
    calls = []
    original = classify.contracts_to_empty

    def counting(sg):
        calls.append(sg)
        return original(sg)

    monkeypatch.setattr(classify, "contracts_to_empty", counting)
    for g in minimal_corpus[:10] + [an_graph(7)]:
        fresh = WeightedDualGraph(list(zip(g.ids, g.weights)),
                                  [(g.ids[i], g.ids[j]) for i, j in g.edges])
        calls.clear()
        certify_minimal(fresh)
        assert 0 < len(calls) <= sum(len(a) <= 1 for a in fresh.adj)


def test_decompose_long_bamboo_stays_small():
    # pieces are built only for vertices that carry a weight-1 vertex: on
    # A_3000 that is one piece, so no table of z_1-paths to every vertex
    g = an_graph(3000)
    tracemalloc.start()
    try:
        cert = decompose_minimal(g, "E1", "E2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tuple(serialize_decomposition(cert)["pieces"]) == (g.ids + ("E3000+1",),)
    assert peak < 8 * 2**20


def test_decompose_keeps_no_piece():
    # a decomposition holds its supergraph, not one z_1-path per attached
    # vertex: on a 500-vertex path with 1023 of them, those paths alone
    # would hold over 500 000 ids
    n = 500
    g = WeightedDualGraph([(f"v{k}", 1024 if k == n - 1 else 2) for k in range(n)],
                          [(f"v{k}", f"v{k + 1}") for k in range(n - 1)])
    tracemalloc.start()
    try:
        cert = decompose_minimal(g, "v0", "v1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.supergraph.n == n + 1023
    assert cert.piece(1022) == g.ids + ("v499+1023",)
    assert peak < 2 * 2**20


def _auxiliary_trees():
    """Auxiliary trees off the embedding's invariant, many of whose
    blow-downs stop short of Empty: two joined weight-1 vertices, a
    weight-1 vertex between two others, and seeded random trees with
    weights 1 to 3."""
    yield WeightedDualGraph([("a", 1), ("b", 1)], [("a", "b")], auxiliary=True)
    yield WeightedDualGraph([("a", 2), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")],
                            auxiliary=True)
    rng = random.Random(26)
    for _ in range(200):
        n = rng.randint(1, 9)
        ids = [f"v{k}" for k in range(n)]
        yield WeightedDualGraph([(vid, rng.randint(1, 3)) for vid in ids],
                                [(ids[i], ids[j]) for i, j in random_tree_edges(n, rng)],
                                auxiliary=True)


def test_contraction_matches_rescan(minimal_corpus):
    # the heap of eligible vertices blows down in the order of a rescan
    # from the smallest index after every step
    leaf_supergraphs = (
        classify._leaf_embedding(g, z1)[0]
        for g in minimal_corpus + _benchmark_minimal_graphs()
        for z1 in range(g.n)
        if g.valence(z1) == 1
    )
    stuck = 0
    for sg in (*leaf_supergraphs, *_auxiliary_trees()):
        got = classify.contracts_to_empty(sg)
        assert (got.steps, got.empty) == contract_by_rescan(sg), sg.ids
        stuck += not got.empty
    assert stuck > 50


# ids that read like attached names: whole ones ("a+1", "a+1+1"), ones with
# no suffix ("a+", "+") or no prefix ("+1"), and "a+01", which is not "a+1"
_PLUS_IDS = ["a", "b", "1", "a+1", "a+2", "a+1+1", "a+1+2", "b+1", "a+", "+1", "+", "a++1",
             "a+01"]


def test_attached_ids_match_taken_set(minimal_corpus):
    # naming against g's ids alone gives the names a set of every id taken
    # so far gives: "{u}+{k}" == "{v}+{j}" only when u = v and k = j
    rng = random.Random(28)
    graphs = list(minimal_corpus)
    for _ in range(2000):
        n = rng.randint(2, 7)
        ids = rng.sample(_PLUS_IDS, n)
        edges = random_tree_edges(n, rng)
        valence = [sum(v in e for e in edges) for v in range(n)]
        graphs.append(WeightedDualGraph(
            [(vid, max(val, 2) + rng.choice((0, 0, 1, 2, 3))) for vid, val in zip(ids, valence)],
            [(ids[i], ids[j]) for i, j in edges]))
    skipped = 0
    for g in graphs:
        for z1 in range(g.n):
            if g.valence(z1) == 1:
                sg = classify._leaf_embedding(g, z1)[0]
                assert sg.ids == attached_ids_by_taken_set(g, z1), (g.ids, z1)
                rank: dict[int, int] = {}
                for aux in range(g.n, sg.n):
                    v = sg.adj[aux][0]
                    rank[v] = rank.get(v, 0) + 1
                    skipped += sg.ids[aux] != f"{g.ids[v]}+{rank[v]}"
    # g holds the name "{v}+{k}" often enough that suffixes are skipped
    assert skipped > 1000


def test_memo_is_per_instance_and_outside_equality():
    a, b = an_graph(4), an_graph(4)
    ray_basis(a)
    assert a._memo and not b._memo
    # graphs compare by identity, whatever their fields
    assert graph_fields(a) == graph_fields(b) and a != b and len({a, b}) == 2
    # adjacency and the id index are built with the graph, beside its fields;
    # neither the edges' order nor their orientation matters
    vertices = [("b", 2), ("a", 3), ("c", 2), ("d", 2)]
    direct = WeightedDualGraph(vertices, [("b", "a"), ("a", "c"), ("a", "d")])
    built = WeightedDualGraph(iter(vertices), iter([("d", "a"), ("a", "b"), ("c", "a")]))
    for g in (direct, built):
        assert not g._memo
        assert g.ids == ("b", "a", "c", "d") and g.weights == (2, 3, 2, 2)
        assert g.edges == frozenset({(0, 1), (1, 2), (1, 3)})
        assert g.adj == ((1,), (0, 2, 3), (1,), (1,))
        assert g.index == {"b": 0, "a": 1, "c": 2, "d": 3}
    assert graph_fields(direct) == graph_fields(built)


# --- A_n arcs: integer series against the Fraction reference -------------

def _defining(n: int) -> dict:
    """z^(n+1) - x y, for `ref_evaluate`."""
    return {(0, 0, n + 1): 1, (1, 1, 0): -1}


def _arc_cases():
    """(n, i, trunc, seed): every family of n = 1..12 at the smallest,
    the CLI's default and an odd truncation, each with its own seed."""
    for n in range(1, 13):
        for i in range(1, n + 1):
            yield n, i, n + 2, 0
            yield n, i, 2 * n + 5, ("odd", i)
            yield n, i, 4 * (n + 1), ("cli", n * i)


def _values(arc) -> tuple:
    """(x, y, z) of an arc as `Fraction` series."""
    return tuple(tuple(map(Q, s)) for s in (arc.x, arc.y, arc.z))


def _residual_values(arc) -> tuple:
    """`defining_residual` as `Fraction`s."""
    return tuple(map(Q, defining_residual(arc)))


def test_sample_arc_matches_fraction_reference():
    for n, i, trunc, seed in _arc_cases():
        arc = sample_arc(n, i, trunc, seed)
        ref = ref_sample_arc(n, i, trunc, seed)
        assert _values(arc) == ref, (n, i, trunc, seed)
        assert all(type(c) is int for c in arc.x + arc.y + arc.z)
        residual = _residual_values(arc)
        assert residual == ref_evaluate(ref, trunc, _defining(n))
        assert all(c == 0 for c in residual)


def test_defining_residual_sees_one_changed_coefficient():
    # adding 1 to the coefficient y[1], x[i+1] or z[2] moves z^(n+1) - x y
    # first at t^(i+1), t^(n+2) and t^(n+2), all within the truncation
    for n, i, trunc, seed in _arc_cases():
        arc = sample_arc(n, i, trunc, seed)
        for axis, k, first in (("y", 1, i + 1), ("x", i + 1, n + 2), ("z", 2, n + 2)):
            series = list(getattr(arc, axis))
            series[k] += 1
            bumped = arc._replace(**{axis: tuple(series)})
            residual = defining_residual(bumped)
            assert any(residual), (n, i, trunc, seed, axis)
            assert next(t for t, c in enumerate(residual) if c) == first
            if n <= 4:
                expected = ref_evaluate(_values(bumped), trunc, _defining(n))
                assert _residual_values(bumped) == expected


def test_separation_check_matches_reference():
    for n, i, j, trunc, seed in (
        (2, 1, 2, 4, 0), (3, 1, 3, 16, 5), (5, 2, 4, 7, "s"), (8, 1, 8, 36, 9), (12, 6, 7, 14, 3),
    ):
        rep = separation_check(n, i, j, 6, trunc, seed)
        bad = ref_separation_failures(n, i, j, 6, trunc, seed)
        assert rep["counterexamples"] == bad
        assert rep["passed"] is (not bad)


def test_separation_check_validates_truncation():
    with pytest.raises(TruncationTooSmall):
        separation_check(3, 1, 2, samples=1, trunc=4, seed=0)


def test_unit_power_recurrence_matches_repeated_products():
    rng = random.Random(77)
    for _ in range(60):
        order = rng.randint(0, 20)
        v = [rng.choice((1, -1, 2, -3, 5))] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 25))]
        m = rng.randint(0, 14)
        expected = ref_series_pow([Q(c) for c in v], m, order)
        assert arcs._unit_pow(v, m, order) == list(expected)
        w = [rng.randint(-9, 9) for _ in range(rng.randint(0, 25))]
        assert arcs._int_mul(v, w, order) == list(ref_series_mul(v, w, order))


# --- report emitter: chunked writer against json.dumps(indent=2) -----------

def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=list) + "\n"


def _cli_document(argv: list[str], codes: tuple[int, ...]):
    """The document `cli.main(argv)` hands to `_emit`, made afresh on each
    call: a report's iterators are spent once it is written."""
    docs: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", lambda doc, out: docs.append(doc))
        assert cli.main(argv) in codes
    (doc,) = docs
    return doc


def _report_makers(tmp_path, negdef_corpus) -> list:
    """One maker of a fresh document per report the CLI writes for the golden
    graph cases and `an-arcs` argument sets, and for `analyze` and `order`
    on `negdef_corpus`."""
    makers = [partial(_cli_document, golden_argv(name, command), (code,))
              for (name, command), code in CASES.items()]
    makers += [partial(_cli_document, ["an-arcs", *args], (code,))
               for args, code in ARC_CASES.values()]
    for k, g in enumerate(negdef_corpus):
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps(serialize_graph(g)))
        makers += [partial(_cli_document, [command, str(path)], (0, 1))
                   for command in ("analyze", "order")]
    return makers


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


def test_emit_matches_json_dumps(tmp_path, capsys, negdef_corpus):
    makers = _report_makers(tmp_path, negdef_corpus)
    assert len(makers) == len(CASES) + len(ARC_CASES) + 2 * len(negdef_corpus)
    makers += [partial(lambda doc: doc, doc) for doc in _random_documents(500)]
    out = tmp_path / "out.json"
    capsys.readouterr()
    for make in makers:
        expected = _dumps(make())
        cli._emit(make(), str(out))
        assert_same(out.read_bytes(), expected.encode("utf-8"))
        cli._emit(make(), None)
        assert_same(capsys.readouterr().out, expected)


@pytest.mark.parametrize(
    "doc",
    [{"a": 1.5}, {"a": [1, 2.0]}, {"a": {"b": [{"c": float("nan")}]}},
     {1: 2}, {"a": {(1,): 2}}, {"a": 1, 2: 3}],
    ids=["float", "float_in_int_array", "nested_nan", "int_key", "tuple_key", "mixed_keys"],
)
def test_emit_rejects_float_and_non_str_key(doc, tmp_path):
    with pytest.raises(TypeError):
        cli._emit(doc, str(tmp_path / "out.json"))


# the emitter's write window, in characters
WINDOW = 1 << 16


def test_emit_writes_in_bounded_chunks(monkeypatch):
    class Recorder:
        def __init__(self):
            self.writes: list[str] = []

        def write(self, text: str) -> int:
            self.writes.append(text)
            return len(text)

        def flush(self) -> None:
            pass

    rng = random.Random(77)
    doc = {"pairs": [{"i": str(k), "w": [rng.randrange(10**6) for _ in range(40)]}
                     for k in range(8000)]}
    largest = max(map(len, cli._pieces(doc, "\n", {})))
    stream = Recorder()
    monkeypatch.setattr("sys.stdout", stream)
    cli._emit(doc, None)
    assert_same("".join(stream.writes), _dumps(doc))
    # pieces are batched: every write but the last fills the window
    assert len(stream.writes) >= 3
    assert min(map(len, stream.writes[:-1])) >= cli.CHUNK
    assert max(map(len, stream.writes)) < WINDOW + largest


def test_emit_peak_memory_is_window_plus_memo(tmp_path):
    argv = ["an-order", "--n", "100"]
    # the memo holds the text and a tuple copy of each distinct ray column
    pairs = _cli_document(argv, (0,))["pairs"]
    rays = {tuple(p[k]) for p in pairs for k in ("witness_ij", "witness_ji")}
    memo = sum(sys.getsizeof(json.dumps(list(r), indent=8)) + sys.getsizeof(r) for r in rays)
    doc = _cli_document(argv, (0,))
    out = tmp_path / "an100.json"
    tracemalloc.start()
    try:
        cli._emit(doc, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4_000_000
    assert len(rays) == 100
    # the window, grown in place as one string, and the encoded copy of one
    # write, each under a window, with room for the largest piece
    assert peak < 4 * WINDOW + memo


_SHARED = (3, -1, 2**70)
_TWIN = [5, 6]


@pytest.mark.parametrize(
    "doc",
    [
        {"a": _SHARED, "b": {"c": _SHARED, "d": [_SHARED, {"e": _SHARED}]}, "f": [_SHARED]},
        {"list": _TWIN, "tuple": tuple(_TWIN), "both": [_TWIN, tuple(_TWIN), [5, 6], _TWIN]},
        {"a": (), "b": [(), {"c": ()}, ()], "d": ((), [()]), "e": [(), 1]},
    ],
    ids=["one_tuple_two_indents", "equal_list_and_tuple", "shared_empty_tuple"],
)
def test_emit_memo_keys_on_identity_and_indent(doc, tmp_path):
    out = tmp_path / "out.json"
    cli._emit(doc, str(out))
    assert_same(out.read_bytes(), _dumps(doc).encode("utf-8"))


# the `order` report of a one-vertex graph, as written when its pair lists were lists
ONE_VERTEX_ORDER = """{
  "graph": {
    "edges": [],
    "vertices": [
      {
        "id": "E1",
        "w": 2
      }
    ]
  },
  "header": {
    "tool": "nasharcs",
    "version": "VERSION"
  },
  "non_inclusions": [],
  "pairs": [],
  "vertices": [
    "E1"
  ]
}
"""


def test_emit_writes_empty_lazy_arrays_as_empty_lists(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [{"id": "E1", "w": 2}], "edges": []}))
    out = tmp_path / "order.json"
    assert cli.main(["order", str(path), "--out", str(out)]) == 0
    assert out.read_text() == ONE_VERTEX_ORDER.replace("VERSION", cli.__version__)
    for make in (lambda: {"a": iter(())},
                 lambda: {"a": [map(str, ()), {"b": (k for k in ())}]}):
        cli._emit(make(), str(out))
        assert_same(out.read_text(), _dumps(make()))


def test_emit_pins_transient_int_arrays(tmp_path):
    # each list is freed once written, so without a reference kept in the memo
    # the next list may get its id, and with it the text of the freed one
    def make() -> dict:
        return {
            "flat": ([k, k + 1] for k in range(200)),
            "nested": ({"w": [k] * 3, "v": [[k], [-k]]} for k in range(200)),
        }

    out = tmp_path / "out.json"
    cli._emit(make(), str(out))
    # a transient array written with the text of an earlier one differs here
    assert_same(out.read_text(), _dumps(make()))


def _dominant_tree(n: int, seed: int) -> WeightedDualGraph:
    """A random tree with w = max(valence, 2) + 1, negative definite by diagonal dominance."""
    edges = random_tree_edges(n, random.Random(seed))
    valence = [0] * n
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    return _tree_from_edges(n, edges, [max(v, 2) + 1 for v in valence])


def test_order_report_peak_memory_is_rays_not_pairs(tmp_path):
    # with the 9900 pairs held as a relation dict and then as a list of
    # report dicts, this run peaked at 6.3 MB; read off the 100 ray columns
    # while they are written, it needs the columns, their text and the window
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(_dominant_tree(100, 100))))
    out = tmp_path / "order.json"
    tracemalloc.start()
    try:
        assert cli.main(["order", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 80_000_000
    assert peak < 3_100_000


def test_certificate_peak_memory_is_per_pair(tmp_path, monkeypatch):
    # with two evidence dicts per unordered pair, list copies of each bamboo and
    # piece, fresh A_m witnesses per pair and then a list of report dicts, this
    # run peaked at 4.4 MB; with one record of the decomposition's own tuples
    # per pair, and each pair's dict made while it is written, at 2.1 MB; with
    # no record per pair, each pair's evidence read from its decomposition
    # while it is written and one positions tuple per place, at 1.7 MB
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(_dominant_tree(48, 48))))
    out = tmp_path / "certify.json"
    tracemalloc.start()
    try:
        assert cli.main(["certify-minimal", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 5_000_000
    assert peak < 3_000_000
    docs: list = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out: docs.append(doc))
    assert cli.main(["certify-minimal", str(path)]) == 0
    (doc,) = docs
    assert isinstance(doc["pairs"], Iterator)
    doc["pairs"] = list(doc["pairs"])
    assert len(doc["pairs"]) == 48 * 47
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert_same(out.read_bytes(), expected.encode("utf-8"))


def _non_minimal_tree(n: int, seed: int) -> WeightedDualGraph:
    """A random tree with w = max(valence, 2), except one less than the
    valence at its largest hub, which makes it not minimal."""
    edges = random_tree_edges(n, random.Random(seed))
    valence = [0] * n
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    weights = [max(v, 2) for v in valence]
    hub = max(range(n), key=valence.__getitem__)
    weights[hub] = valence[hub] - 1
    return _tree_from_edges(n, edges, weights)


def test_analyze_report_peak_memory_is_per_column(tmp_path, monkeypatch):
    # with the n^2 "p/q" strings of the ray basis made before the report is
    # written, and each write window held as a list of pieces and their join,
    # this run peaked at 2.5 MB; with each column's strings made while it is
    # written, into a window that is one growing string, at 1.6 MB
    g = _non_minimal_tree(100, 100)
    assert graph_is_negative_definite(g) and not classify.is_minimal(g)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(serialize_graph(g)))
    out = tmp_path / "analyze.json"
    tracemalloc.start()
    try:
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 50_000_000
    assert peak < 2_000_000
    docs: list = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out: docs.append(doc))
    assert cli.main(["analyze", str(path)]) == 0
    (doc,) = docs
    assert isinstance(doc["ray_basis"], Iterator)
    doc["ray_basis"] = list(doc["ray_basis"])
    doc["relation"] = {k: list(v) for k, v in doc["relation"].items()}
    assert len(doc["ray_basis"]) == 100 and len(doc["relation"]["pairs"]) == 100 * 99
    # json.dumps(doc, indent=2, sort_keys=True) + "\n", compared a batch of its
    # pieces at a time: the whole text and its pieces would take hundreds of MB
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    with open(out, encoding="utf-8", newline="") as fh:
        while expected := "".join(islice(pieces, 100_000)):
            assert_same(fh.read(len(expected)), expected)
        assert fh.read() == "\n"
