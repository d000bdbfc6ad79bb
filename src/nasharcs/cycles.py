"""Exceptional cycles over a resolution graph.

Cycles are integer (or exact rational) coefficient vectors over the
graph's vertices.  This module provides the anti-nef test, the
fundamental cycle, the extreme rays of the anti-nef cone, integer
witness cycles for order comparisons, and Artin's rationality criterion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NotNegativeDefinite,
    SameVertex,
    ZeroCycle,
)
from .graph import (
    WeightedDualGraph,
    adjacency,
    cached_on_graph,
    graph_is_negative_definite,
    rooted,
    tree_pivots,
)
from .rational import RationalMatrix

Cycle = tuple[int, ...]


def _check_cycle(g: WeightedDualGraph, z: Sequence[int]) -> Cycle:
    if len(z) != g.n:
        raise DimensionMismatch(f"cycle length {len(z)} != {g.n}")
    if all(c == 0 for c in z):
        raise ZeroCycle("effective exceptional cycle must be nonzero")
    if any(c < 0 for c in z):
        raise ZeroCycle("effective exceptional cycle must be >= 0")
    return tuple(z)


def intersection_products(g: WeightedDualGraph, z: Sequence) -> tuple:
    """Components of M.z, via the sparse tree structure (exact)."""
    adj = adjacency(g)
    return tuple(
        -g.weights[i] * z[i] + sum(z[j] for j in adj[i]) for i in range(g.n)
    )


def is_anti_nef(g: WeightedDualGraph, z: Sequence[int]) -> bool:
    """True iff every component of M.z is <= 0."""
    zc = _check_cycle(g, z)
    return all(c <= 0 for c in intersection_products(g, zc))


def _require_negative_definite(g: WeightedDualGraph) -> None:
    if not graph_is_negative_definite(g):
        raise NotNegativeDefinite("intersection matrix is not negative definite")


@cached_on_graph
def fundamental_cycle(g: WeightedDualGraph) -> Cycle:
    """Minimal anti-nef cycle >= (1,...,1), by Laufer-style increments.

    Starts at the reduced cycle and repeatedly bumps the smallest
    coordinate whose intersection number is still positive; terminates
    because the matrix is negative definite.
    """
    _require_negative_definite(g)
    z = [1] * g.n
    while True:
        prod = intersection_products(g, z)
        k = next((i for i, p in enumerate(prod) if p > 0), None)
        if k is None:
            return tuple(z)
        z[k] += 1


@dataclass(frozen=True)
class RayBasis:
    """Columns of (-M)^-1: column k is the cycle Z_k with Z_k . E_l = -delta_kl.

    These columns generate the anti-nef cone; for a connected
    negative-definite graph every entry is strictly positive.
    """

    matrix: RationalMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def entry(self, vertex: int, ray: int) -> Q:
        return self.matrix[vertex, ray]

    def column(self, ray: int) -> tuple[Q, ...]:
        return self.matrix.column(ray)

    def row(self, vertex: int) -> tuple[Q, ...]:
        return self.matrix.row(vertex)


@cached_on_graph
def ray_basis(g: WeightedDualGraph) -> RayBasis:
    """Exact inverse of -M packaged as the cone's extreme rays.

    Column k solves -M x = e_k by tree elimination rooted at k.  The
    right-hand side stays zero below the root, so the reduced equations
    read d(k) x_k = 1 and d(v) x_v = x_parent(v) with the tree pivots d:
    O(n) exact operations per column.  (-M)^-1 is symmetric, so the
    columns serve as the rows.
    """
    _require_negative_definite(g)
    columns = []
    for k in range(g.n):
        pivot, (order, parent) = tree_pivots(g, k), rooted(g, k)
        x = [Q(0)] * g.n
        x[k] = 1 / pivot[k]
        for v in order[1:]:
            x[v] = x[parent[v]] / pivot[v]
        columns.append(x)
    return RayBasis(matrix=RationalMatrix(columns))


def scale_to_integer(column: Sequence[Q]) -> Cycle:
    """Smallest positive integer multiple of a rational cycle."""
    mult = lcm(*(Q(c).denominator for c in column)) if column else 1
    return tuple(int(Q(c) * mult) for c in column)


@cached_on_graph
def integer_rays(g: WeightedDualGraph) -> tuple[Cycle, ...]:
    """The ray columns, each cleared of denominators."""
    rays = ray_basis(g)
    return tuple(scale_to_integer(rays.column(k)) for k in range(g.n))


def order_cycle_witness(g: WeightedDualGraph, i: int, j: int) -> Cycle | None:
    """Integer anti-nef cycle with coefficient at i strictly below j, if any.

    The anti-nef cone is generated by the ray columns, so such a cycle
    exists iff some single column already separates i and j; the first
    such column (cleared of denominators) is returned.  Scaling by a
    positive integer keeps the comparison, so the integer columns are
    scanned directly.
    """
    if i == j:
        raise SameVertex("order comparison needs two distinct vertices")
    for column in integer_rays(g):
        if column[i] < column[j]:
            return column
    return None


def intersection_number(g: WeightedDualGraph, a: Sequence[int], b: Sequence[int]) -> Q:
    """Exact value of a . b in the intersection lattice."""
    prod = intersection_products(g, b)
    return sum(Q(x) * p for x, p in zip(a, prod))


def canonical_degrees(g: WeightedDualGraph) -> Cycle:
    """K . E_i = w(i) - 2 for rational exceptional curves (adjunction)."""
    return tuple(w - 2 for w in g.weights)


def arithmetic_genus(g: WeightedDualGraph, z: Sequence[int]) -> Q:
    """p_a(Z) = 1 + (Z.Z + Z.K) / 2."""
    zc = _check_cycle(g, z)
    zz = intersection_number(g, zc, zc)
    zk = sum(Q(c) * d for c, d in zip(zc, canonical_degrees(g)))
    return 1 + (zz + zk) / 2


def serialize_ray_basis(rays: RayBasis) -> list[list[str]]:
    """Columns as arrays of rational strings "p/q"."""
    return [
        [f"{c.numerator}/{c.denominator}" for c in rays.column(k)]
        for k in range(rays.n)
    ]


@cached_on_graph
def is_rational(g: WeightedDualGraph) -> bool:
    """Artin's criterion: the fundamental cycle has arithmetic genus zero."""
    _require_negative_definite(g)
    return arithmetic_genus(g, fundamental_cycle(g)) == 0
