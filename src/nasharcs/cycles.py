"""Exceptional cycles over a resolution graph.

Cycles are integer coefficient vectors over the graph's vertices.  This
module provides the anti-nef test, the fundamental cycle, the extreme
rays of the anti-nef cone (as det(-M) and the integer columns of
det(-M) (-M)^-1, which, divided by their gcds, witness the order
comparisons), and rationality, read off the fundamental-cycle loop.
All of it is integer arithmetic; rays become rational only as the "p/q"
strings of a report.
"""
from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .errors import NotNegativeDefinite
from .graph import (
    WeightedDualGraph,
    cached_on_graph,
    graph_is_negative_definite,
    rooted,
    tree_determinants,
)

Cycle = tuple[int, ...]


def intersection_products(g: WeightedDualGraph, z: Sequence) -> tuple:
    """Components of M.z, via the sparse tree structure (exact)."""
    adj = g.adj
    return tuple(
        -g.weights[i] * z[i] + sum(z[j] for j in adj[i]) for i in range(g.n)
    )


def is_anti_nef(g: WeightedDualGraph, z: Sequence[int]) -> bool:
    """True iff every component of M.z is <= 0."""
    return all(c <= 0 for c in intersection_products(g, z))


def _require_negative_definite(g: WeightedDualGraph) -> None:
    if not graph_is_negative_definite(g):
        raise NotNegativeDefinite("intersection matrix is not negative definite")


@cached_on_graph
def _laufer(g: WeightedDualGraph) -> tuple[Cycle, bool]:
    """Fundamental cycle by Laufer's loop, and whether g is rational.

    Starts at the reduced cycle and repeatedly bumps the smallest
    coordinate k with Z.E_k > 0; terminates because the matrix is
    negative definite.  The reduced cycle of a tree of rational curves
    has arithmetic genus 0, and each bump adds Z.E_k - 1 to the genus,
    so the fundamental cycle has genus 0 (Artin's criterion) exactly
    when every bump had Z.E_k = 1 (Laufer 1972).
    """
    _require_negative_definite(g)
    z = [1] * g.n
    rational = True
    while True:
        prod = intersection_products(g, z)
        k = next((i for i, p in enumerate(prod) if p > 0), None)
        if k is None:
            return tuple(z), rational
        rational = rational and prod[k] == 1
        z[k] += 1


def fundamental_cycle(g: WeightedDualGraph) -> Cycle:
    """Minimal anti-nef cycle >= (1,...,1)."""
    return _laufer(g)[0]


def is_rational(g: WeightedDualGraph) -> bool:
    """The fundamental cycle has arithmetic genus zero (Artin's criterion)."""
    return _laufer(g)[1]


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

    def rows(self) -> tuple[tuple["Fraction", ...], ...]:
        """The entries as reduced `Fraction`s e/det; the package never uses
        this, so no command loads `fractions`."""
        from fractions import Fraction as Q

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


def serialize_ray_basis(rays: RayBasis) -> Iterator[list[str]]:
    """Columns as arrays of reduced rational strings "p/q", entry over det;
    an iterator, each column's strings made while it is written."""
    det = rays.det

    def cells(column: Cycle) -> list[str]:
        out = []
        for e in column:
            common = gcd(e, det)
            out.append(f"{e // common}/{det // common}")
        return out

    return map(cells, rays.columns)
