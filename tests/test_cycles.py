from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasharcs.cycles import (
    fundamental_cycle,
    integer_rays,
    is_anti_nef,
    is_rational,
    ray_basis,
)
from nasharcs.errors import NotNegativeDefinite, SameVertex
from nasharcs.generators import an_graph
from nasharcs.graph import WeightedDualGraph
from nasharcs.order import relation_matrix

from builders import e6_graph, random_negative_definite_graph
from oracles import (
    anti_nef_naive,
    artin_genus,
    order_cycle_witness,
    gaussian_determinant,
    intersection_rows,
    minimal_anti_nef_by_enumeration,
)


def test_anti_nef_a2():
    g = an_graph(2)
    assert is_anti_nef(g, (1, 2))  # M.z = (0, -3)
    assert not is_anti_nef(g, (1, 0))  # (M.z)_2 = 1


@pytest.mark.parametrize("n", range(1, 8))
def test_anti_nef_reduced_cycle_on_bamboo(n):
    assert is_anti_nef(an_graph(n), (1,) * n)


@pytest.mark.parametrize("n", range(1, 7))
def test_fundamental_cycle_bamboo(n):
    g = an_graph(n)
    z = fundamental_cycle(g)
    assert z == (1,) * n
    assert z == minimal_anti_nef_by_enumeration(g)


def test_fundamental_cycle_e6():
    g = e6_graph()
    z = fundamental_cycle(g)
    assert z == (1, 2, 3, 2, 1, 2)
    assert z == minimal_anti_nef_by_enumeration(g)


def test_fundamental_cycle_single_vertex():
    assert fundamental_cycle(WeightedDualGraph([("E1", 2)], [])) == (1,)


def test_fundamental_cycle_requires_negative_definite():
    center = [("c", 2)] + [(f"l{k}", 2) for k in range(5)]
    star = WeightedDualGraph(center, [("c", f"l{k}") for k in range(5)])
    with pytest.raises(NotNegativeDefinite):
        fundamental_cycle(star)


def test_fundamental_cycle_minimality(small_negdef_corpus):
    # subtracting one unit from any coefficient > 1 breaks anti-nefness
    for g in small_negdef_corpus[:30]:
        z = list(fundamental_cycle(g))
        for k in range(g.n):
            if z[k] > 1:
                z[k] -= 1
                assert not is_anti_nef(g, z)
                z[k] += 1


def test_ray_basis_a2():
    rays = ray_basis(an_graph(2))
    assert rays.det == 3
    assert rays.columns == ((2, 1), (1, 2))
    # the read-only Fraction view keeps the e/det entries, reduced
    assert rays.matrix.rows() == ((Q(2, 3), Q(1, 3)), (Q(1, 3), Q(2, 3)))


def test_ray_basis_single_vertex():
    rays = ray_basis(WeightedDualGraph([("E1", 2)], []))
    assert (rays.det, rays.columns) == (2, ((1,),))


@pytest.mark.parametrize("n", [*range(1, 11), 40, 120])
def test_ray_basis_bamboo_closed_form(n):
    rays = ray_basis(an_graph(n))
    assert rays.det == n + 1
    for a in range(1, n + 1):
        for k in range(1, n + 1):
            assert rays.columns[k - 1][a - 1] == min(a, k) * (n + 1 - max(a, k))


def test_ray_basis_defining_identity(negdef_corpus):
    # (-M) column_k = det e_k, in plain integers
    for g in negdef_corpus:
        rays = ray_basis(g)
        rows = intersection_rows(g)
        for k, column in enumerate(rays.columns):
            product = [-sum(a * e for a, e in zip(row, column)) for row in rows]
            assert product == [rays.det * (v == k) for v in range(g.n)]
        assert rays.det == gaussian_determinant([[-a for a in row] for row in rows])


def test_ray_basis_strictly_positive(negdef_corpus):
    for g in negdef_corpus:
        rays = ray_basis(g)
        assert rays.det > 0
        assert all(e > 0 for column in rays.columns for e in column)


def test_ray_rows_never_equal(negdef_corpus):
    for g in negdef_corpus:
        rows = list(zip(*ray_basis(g).columns))
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert rows[i] != rows[j]


def test_order_cycle_witness_a2():
    columns = integer_rays(an_graph(2))
    assert order_cycle_witness(columns, 0, 1) == (1, 2)
    assert order_cycle_witness(columns, 1, 0) == (2, 1)


def test_order_cycle_witness_a2_against_enumeration():
    # (1, 2) is confirmed anti-nef with m_1 < m_2 by exhaustive search
    g = an_graph(2)
    hits = [
        (a, b)
        for a in range(5)
        for b in range(5)
        if (a, b) != (0, 0) and anti_nef_naive(g, (a, b)) and a < b
    ]
    assert (1, 2) in hits


def test_order_cycle_witness_same_vertex():
    # no cycle puts a vertex below itself, and the package refuses the pair
    assert order_cycle_witness(integer_rays(an_graph(2)), 1, 1) is None
    with pytest.raises(SameVertex):
        relation_matrix(an_graph(2)).get(1, 1)


def test_order_cycle_witness_properties(negdef_corpus):
    for g in negdef_corpus[:60]:
        columns = integer_rays(g)
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                w = order_cycle_witness(columns, i, j)
                if w is not None:
                    assert is_anti_nef(g, w)
                    assert w[i] < w[j]


@pytest.mark.parametrize("n", range(2, 8))
def test_bamboo_witnesses_always_exist(n):
    columns = integer_rays(an_graph(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert order_cycle_witness(columns, i, j) is not None


def test_serialize_ray_basis():
    from nasharcs.cycles import serialize_ray_basis

    doc = serialize_ray_basis(ray_basis(an_graph(2)))
    assert isinstance(doc, Iterator)
    assert [list(c) for c in doc] == [["2/3", "1/3"], ["1/3", "2/3"]]


def test_integer_rays_divide_out_gcd():
    # A_3: det 4, columns (3, 2, 1), (2, 4, 2), (1, 2, 3)
    assert ray_basis(an_graph(3)).columns[1] == (2, 4, 2)
    assert integer_rays(an_graph(3)) == ((3, 2, 1), (1, 2, 1), (1, 2, 3))


def test_rationality_bamboo_and_e6():
    assert is_rational(an_graph(4))
    assert is_rational(e6_graph())
    assert artin_genus(e6_graph(), fundamental_cycle(e6_graph())) == 0


def test_non_rational_graph():
    # found by seeded search over weighted trees: negative definite but
    # the fundamental cycle has positive arithmetic genus
    weights = [3, 2, 3, 3, 3, 2, 2, 2]
    edges = [(0, 1), (0, 4), (0, 6), (2, 6), (3, 6), (5, 6), (5, 7)]
    ids = [f"v{k}" for k in range(8)]
    g = WeightedDualGraph(
        list(zip(ids, weights)), [(ids[i], ids[j]) for i, j in edges]
    )
    from nasharcs.graph import graph_is_negative_definite

    assert graph_is_negative_definite(g)
    assert not is_rational(g)
    assert artin_genus(g, fundamental_cycle(g)) > 0


def test_laufer_rationality_matches_artin_genus(negdef_corpus):
    # the flag from the fundamental-cycle loop against Artin's genus test
    rng = random.Random(1972)
    graphs = negdef_corpus + [random_negative_definite_graph(rng) for _ in range(400)]
    verdicts = [is_rational(g) for g in graphs]
    for g, rational in zip(graphs, verdicts):
        assert rational == (artin_genus(g, fundamental_cycle(g)) == 0), g
    assert set(verdicts) == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=20))
def test_anti_nef_scaling_invariance(n, factor):
    g = an_graph(n)
    rng = random.Random(n * 1000 + factor)
    z = tuple(rng.randint(0, 4) for _ in range(n))
    if all(c == 0 for c in z):
        z = (1,) + z[1:]
    scaled = tuple(factor * c for c in z)
    assert is_anti_nef(g, z) == is_anti_nef(g, scaled)
