"""Exceptional cycles over a resolution graph.

Cycles are integer coefficient vectors over the graph's vertices.  This
module provides the anti-nef test, the fundamental cycle, the extreme
rays of the anti-nef cone (as det(-M) and the integer columns of
det(-M) (-M)^-1), integer witness cycles for order comparisons, and
Artin's rationality criterion.  All of it is integer arithmetic; rays
become rational only as the "p/q" strings of a report.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    NotNegativeDefinite,
    SameVertex,
    ZeroCycle,
)
from .graph import (
    WeightedDualGraph,
    cached_on_graph,
    graph_is_negative_definite,
    rooted,
    tree_determinants,
)

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
    adj = g.adj
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


class RayBasis(NamedTuple):
    """(-M)^-1 as det(-M) and the integer columns of det(-M) (-M)^-1.

    Column k over `det` is the cycle Z_k with Z_k . E_l = -delta_kl.
    These columns generate the anti-nef cone; for a connected
    negative-definite graph every entry is strictly positive.  (-M)^-1
    is symmetric, so the columns serve as the rows.
    """

    det: int
    columns: tuple[Cycle, ...]

    @property
    def matrix(self) -> "RayBasis":
        """Read-only view for external `matrix.rows()` readers."""
        return self

    def rows(self) -> tuple[tuple[Q, ...], ...]:
        """The entries as reduced `Fraction`s e/det; the package never uses this."""
        return tuple(tuple(Q(e, self.det) for e in column) for column in self.columns)


@cached_on_graph
def ray_basis(g: WeightedDualGraph) -> RayBasis:
    """det(-M) (-M)^-1 by one subtree-determinant pass per column.

    Column k solves -M x = det e_k by tree elimination rooted at k, with
    the subtree determinants D and their child products B of that
    rooting.  The right-hand side stays zero below the root, so
    x_k = B(k) and x_v = x_parent(v) B(v) / D(v), an exact division:
    each entry is a product of subtree determinants (Eisenbud-Neumann
    1985).  O(n) integer operations per column.
    """
    _require_negative_definite(g)
    columns = []
    for k in range(g.n):
        (sub, below), (order, parent) = tree_determinants(g, k), rooted(g, k)
        x = [0] * g.n
        x[k] = below[k]
        for v in order[1:]:
            x[v] = x[parent[v]] // sub[v] * below[v]
        columns.append(tuple(x))
    # every rooting gives the same det(-M) at its root
    return RayBasis(det=sub[k], columns=tuple(columns))


@cached_on_graph
def integer_rays(g: WeightedDualGraph) -> tuple[Cycle, ...]:
    """The ray columns, each divided by the gcd of its entries."""
    out = []
    for column in ray_basis(g).columns:
        common = gcd(*column)
        out.append(tuple(e // common for e in column))
    return tuple(out)


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


def intersection_number(g: WeightedDualGraph, a: Sequence[int], b: Sequence[int]) -> int:
    """a . b in the intersection lattice."""
    prod = intersection_products(g, b)
    return sum(x * p for x, p in zip(a, prod))


def canonical_degrees(g: WeightedDualGraph) -> Cycle:
    """K . E_i = w(i) - 2 for rational exceptional curves (adjunction)."""
    return tuple(w - 2 for w in g.weights)


def arithmetic_genus(g: WeightedDualGraph, z: Sequence[int]) -> int:
    """p_a(Z) = 1 + (Z.Z + Z.K) / 2.

    The division is exact: Z.Z and Z.K are both congruent to
    sum w(i) z_i mod 2, so their sum is even.
    """
    zc = _check_cycle(g, z)
    zz = intersection_number(g, zc, zc)
    zk = sum(c * d for c, d in zip(zc, canonical_degrees(g)))
    return 1 + (zz + zk) // 2


def serialize_ray_basis(rays: RayBasis) -> list[list[str]]:
    """Columns as arrays of reduced rational strings "p/q", entry over det."""
    out = []
    for column in rays.columns:
        cells = []
        for e in column:
            common = gcd(e, rays.det)
            cells.append(f"{e // common}/{rays.det // common}")
        out.append(cells)
    return out


@cached_on_graph
def is_rational(g: WeightedDualGraph) -> bool:
    """Artin's criterion: the fundamental cycle has arithmetic genus zero."""
    _require_negative_definite(g)
    return arithmetic_genus(g, fundamental_cycle(g)) == 0
