"""The divisorial order relation and its non-inclusion consequences.

Two exceptional divisors are compared through the orders that functions
on the singularity can take along them, that is through anti-nef cycles.
Each strict comparison yields a proof that one Nash family closure is
not contained in the other.

An anti-nef cycle with z[i] < z[j] exists iff ray column j of (-M)^-1
has that property.  The columns generate the anti-nef cone, so if any
cycle has it, some column does.  Along the tree path from i to j the
ratio col_k[j] / col_k[i] depends only on where the path from k meets
it, and grows strictly toward j: each step multiplies it by
1 / (r(u->v) r(v->u)) > 1, for the subtree-determinant ratios r of
`cycles.ray_basis` (Eisenbud-Neumann 1985).  So column j is the best
witness, and on a minimal graph it always is one (Lipman's peak on the
diagonal).  Each relation is read off two columns when it is asked for.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import Any, Iterator, NamedTuple

from .cycles import Cycle, integer_rays, is_anti_nef
from .errors import InconsistentRelation, SameVertex
from .graph import WeightedDualGraph, cached_on_graph, dot_quote


class Verdict(enum.Enum):
    INCOMPARABLE = "incomparable"
    LESS = "less"
    GREATER = "greater"


class NashRelation(NamedTuple):
    """The two witness cycles of an ordered vertex pair (i, j).

    witness_ij, when present, is an anti-nef cycle whose coefficient at i
    is strictly below the one at j (and symmetrically for witness_ji).
    The verdict is read off them: both present means incomparable,
    exactly one means a strict order.  Both absent cannot happen over an
    invertible intersection matrix; `relation_matrix` raises on it.
    """

    witness_ij: Cycle | None
    witness_ji: Cycle | None

    @property
    def verdict(self) -> Verdict:
        if self.witness_ij is None:
            return Verdict.GREATER
        return Verdict.LESS if self.witness_ji is None else Verdict.INCOMPARABLE

    def reversed(self) -> "NashRelation":
        return NashRelation(self.witness_ji, self.witness_ij)


class RelationMatrix(NamedTuple):
    """Relation table of a graph: its integer rays, and no pair stored."""

    graph: WeightedDualGraph
    rays: tuple[Cycle, ...]  # `integer_rays(graph)`

    def get(self, i: int, j: int) -> NashRelation:
        if i == j:
            raise SameVertex("cannot relate a divisor to itself")
        col_i, col_j = self.rays[i], self.rays[j]
        return NashRelation(
            col_j if col_j[i] < col_j[j] else None,
            col_i if col_i[j] < col_i[i] else None,
        )

    def pairs(self) -> Iterator[tuple[tuple[int, int], NashRelation]]:
        """Every ordered pair with its relation: (i, j), then (j, i), for i < j."""
        n = self.graph.n
        for i in range(n):
            for j in range(i + 1, n):
                rel = self.get(i, j)
                yield (i, j), rel
                yield (j, i), rel.reversed()

    def open_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p, rel in self.pairs() if rel.witness_ij is None)


def _verify_table(rm: RelationMatrix) -> None:
    """Post-hoc sanity: witness validity, a witness for every pair,
    antisymmetry and transitivity of Less.

    A witness must be one of the table's ray columns, found by identity;
    each column is tested for anti-nefness once.  Every ordered pair comes
    both ways round, so checking witness_ij checks every witness.
    """
    g = rm.graph
    anti_nef = {id(column): is_anti_nef(g, column) for column in rm.rays}
    less = set()
    for (i, j), rel in rm.pairs():
        w = rel.witness_ij
        if w is None and rel.witness_ji is None:
            raise InconsistentRelation(
                f"divisors {i} and {j} compare equal on every ray; "
                "the intersection matrix cannot be invertible"
            )
        if w is not None and not (anti_nef.get(id(w), False) and w[i] < w[j]):
            raise InconsistentRelation(f"bad witness for pair ({i}, {j})")
        if rel.verdict is Verdict.LESS:  # the reversed pair reads GREATER
            less.add((i, j))
    for (a, b) in less:
        if (b, a) in less:
            raise InconsistentRelation(f"antisymmetry violated on ({a}, {b})")
        for c in range(g.n):
            if (b, c) in less and (a, c) not in less:
                raise InconsistentRelation(
                    f"transitivity violated on ({a}, {b}, {c})"
                )


@cached_on_graph
def relation_matrix(g: WeightedDualGraph) -> RelationMatrix:
    """The relation table of g, after checking its coherence."""
    rm = RelationMatrix(graph=g, rays=integer_rays(g))
    _verify_table(rm)
    return rm


def hasse_edges(rm: RelationMatrix) -> list[tuple[int, int]]:
    """Transitive reduction of the strict order."""
    less = {pair for pair, rel in rm.pairs() if rel.verdict is Verdict.LESS}
    out = []
    for (i, j) in sorted(less):
        if not any((i, k) in less and (k, j) in less for k in range(rm.graph.n)):
            out.append((i, j))
    return out


def hasse_export(rm: RelationMatrix) -> str:
    """DOT text for the order's Hasse diagram."""
    g = rm.graph
    lines = ["digraph divisor_order {"]
    for vid in g.ids:
        lines.append(f"  {dot_quote(vid)};")
    for i, j in hasse_edges(rm):
        lines.append(f"  {dot_quote(g.ids[i])} -> {dot_quote(g.ids[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def an_relation(m: int, i: int, j: int) -> NashRelation:
    """Closed-form relation on the weight-2 bamboo with m vertices.

    The order vectors of the two coordinate functions on z^(m+1) = x y
    are (1, 2, ..., m) and (m, ..., 2, 1); each separates any pair in one
    direction, so every pair is incomparable.  Indices are 0-based, and
    each m has one pair of tuples.
    """
    if i == j:
        raise SameVertex("cannot relate a divisor to itself")
    up, down = _an_orders(m)
    return NashRelation(up, down) if i < j else NashRelation(down, up)


@lru_cache(maxsize=None)
def _an_orders(m: int) -> tuple[Cycle, Cycle]:
    """The two order vectors of A_m, made once per m, so that every pair
    pulled back to A_m cites the same two tuples."""
    return tuple(range(1, m + 1)), tuple(range(m, 0, -1))


def serialize_relation_matrix(rm: RelationMatrix) -> dict[str, Any]:
    """The table's report: "pairs" by vertex index, "non_inclusions" by id,
    both as generators that make each item from the table while it is written."""
    n, ids = rm.graph.n, rm.graph.ids
    by_id = sorted(range(n), key=ids.__getitem__)

    def pair(i: int, j: int) -> dict[str, Any]:
        rel = rm.get(i, j)
        return {"i": ids[i], "j": ids[j], "verdict": rel.verdict.value,
                "witness_ij": rel.witness_ij, "witness_ji": rel.witness_ji}

    return {
        "vertices": list(ids),
        "pairs": (pair(i, j) for i in range(n) for j in range(n) if i != j),
        "non_inclusions": (
            [ids[a], ids[b]] for a in by_id for b in by_id
            if a != b and rm.get(a, b).witness_ij is not None),
    }
