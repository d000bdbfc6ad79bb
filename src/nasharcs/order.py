"""The divisorial order relation and its non-inclusion consequences.

Two exceptional divisors are compared through the orders that functions
on the singularity can take along them; computationally that reduces to
comparing rows of the inverted intersection matrix.  Each strict
comparison yields a proof that one Nash family closure is not contained
in the other.
"""
from __future__ import annotations

import enum
from typing import Any, Iterator, NamedTuple

from .cycles import Cycle, is_anti_nef, order_cycle_witness
from .errors import EqualityDetected, InconsistentRelation, SameVertex
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
    invertible intersection matrix and raises instead of being represented.
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


def relate(g: WeightedDualGraph, i: int, j: int) -> NashRelation:
    """Decide the relation between divisors i and j."""
    if i == j:
        raise SameVertex("cannot relate a divisor to itself")
    rel = NashRelation(order_cycle_witness(g, i, j), order_cycle_witness(g, j, i))
    if rel.witness_ij is None and rel.witness_ji is None:
        raise EqualityDetected(
            f"divisors {i} and {j} compare equal on every ray; "
            "the intersection matrix cannot be invertible"
        )
    return rel


class RelationMatrix(NamedTuple):
    """Complete relation table for a graph, plus the proven non-inclusions."""

    graph: WeightedDualGraph
    relations: dict[tuple[int, int], NashRelation]  # every ordered pair (i, j), i != j

    def get(self, i: int, j: int) -> NashRelation:
        try:
            return self.relations[i, j]
        except KeyError:
            raise SameVertex(f"no relation stored for pair ({i}, {j})") from None

    def pairs(self) -> Iterator[tuple[tuple[int, int], NashRelation]]:
        return iter(self.relations.items())

    def non_inclusions(self) -> frozenset[tuple[int, int]]:
        """Ordered pairs (a, b) with a proof that closure(N_a) is not in closure(N_b)."""
        return frozenset(p for p, rel in self.relations.items() if rel.witness_ij is not None)

    def open_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p, rel in self.relations.items() if rel.witness_ij is None)


def _verify_table(rm: RelationMatrix) -> None:
    """Post-hoc sanity: witness validity, antisymmetry, transitivity of Less.

    Witnesses are ray columns, so only about n distinct cycles occur; each
    distinct cycle is tested for anti-nefness once.
    """
    g = rm.graph
    anti_nef: dict[Cycle, bool] = {}
    less = set()
    for (i, j), rel in rm.pairs():
        for vertex_lo, vertex_hi, w in (
            (i, j, rel.witness_ij),
            (j, i, rel.witness_ji),
        ):
            if w is None:
                continue
            if w not in anti_nef:
                anti_nef[w] = is_anti_nef(g, w)
            if not (anti_nef[w] and w[vertex_lo] < w[vertex_hi]):
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
    """Relate every ordered pair and verify the table's coherence."""
    relations = {}
    for i in range(g.n):
        for j in range(i + 1, g.n):
            rel = relate(g, i, j)
            relations[i, j] = rel
            relations[j, i] = rel.reversed()
    rm = RelationMatrix(graph=g, relations=relations)
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
    direction, so every pair is incomparable.  Indices are 0-based.
    """
    if i == j:
        raise SameVertex("cannot relate a divisor to itself")
    up = tuple(range(1, m + 1))
    down = tuple(range(m, 0, -1))
    return NashRelation(up, down) if i < j else NashRelation(down, up)


def serialize_relation_matrix(rm: RelationMatrix) -> dict[str, Any]:
    g = rm.graph
    pairs = []
    for (i, j), rel in sorted(rm.pairs()):
        pairs.append(
            {
                "i": g.ids[i],
                "j": g.ids[j],
                "verdict": rel.verdict.value,
                "witness_ij": rel.witness_ij,
                "witness_ji": rel.witness_ji,
            }
        )
    return {
        "vertices": list(g.ids),
        "pairs": pairs,
        "non_inclusions": sorted(
            [g.ids[a], g.ids[b]] for a, b in rm.non_inclusions()
        ),
    }
