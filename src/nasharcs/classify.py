"""Graph classification, bamboo decomposition, and minimal certification.

Implements the blow-down contraction calculus, recognition of minimal
and weight-2 bamboo graphs, and the embedding of a minimal graph into a
non-singular supergraph by attaching weight-1 vertices along a chosen
bamboo.  `certify_minimal` ties these together into a full certificate
for every ordered divisor pair: each pair is proven by its relation on
the bamboo's A_m quotient once the supergraph is checked to blow down.
"""
from __future__ import annotations

from typing import Any, Iterator, NamedTuple

from .cycles import Cycle, fundamental_cycle, is_rational
from .errors import BadWeight, InconsistentRelation, NotMinimal, SameVertex
from .graph import (
    LazyArray,
    WeightedDualGraph,
    cached_on_graph,
    dot_quote,
    graph_is_negative_definite,
    serialize_graph,
)
from .order import an_relation, relation_matrix

# most weight-1 vertices a bamboo decomposition may attach, counted as the
# sum of weight minus valence: the supergraph, its blow-down and the
# `decompose` report all grow with it
MAX_ATTACHED = 4096


@cached_on_graph
def is_minimal(g: WeightedDualGraph) -> bool:
    """Weight >= max(valence, 2) at every vertex (no (-1)-curve), on a rational graph."""
    if any(g.weights[i] < max(g.valence(i), 2) for i in range(g.n)):
        return False
    return graph_is_negative_definite(g) and is_rational(g)


def is_an(g: WeightedDualGraph) -> int | None:
    """n when g is a path with all weights 2, else None."""
    if any(w != 2 for w in g.weights):
        return None
    if any(g.valence(i) > 2 for i in range(g.n)):
        return None
    return g.n  # a tree with max valence 2 is a path


class BlowDownStep(NamedTuple):
    vertex: str
    neighbors: tuple[str, ...]  # at most one: only leaves are blown down


class ContractionTrace(NamedTuple):
    steps: tuple[BlowDownStep, ...]
    empty: bool  # False when the blow-downs stop short of Empty


def contracts_to_empty(g: WeightedDualGraph) -> ContractionTrace:
    """Greedy blow-down of weight-1 leaves (or a lone vertex), smallest index first.

    Leaves are enough for the supergraphs `_leaf_embedding` builds:
    there weight - valence is 0 at every vertex but z_1, where it is 1,
    and blowing down a leaf lowers both at its neighbour, so a weight-1
    vertex is always a leaf, or z_1 once it is the last vertex left.
    """
    # dicts keep insertion order across deletions, so scanning `weight`
    # visits the vertices left by index and the first eligible is smallest
    weight = dict(enumerate(g.weights))
    adj = [set(a) for a in g.adj]
    steps: list[BlowDownStep] = []
    while weight:
        for v in weight:
            if weight[v] == 1 and len(adj[v]) <= 1:
                break
        else:
            return ContractionTrace(steps=tuple(steps), empty=False)
        nbrs = sorted(adj[v])
        for u in nbrs:
            weight[u] -= 1
            adj[u].discard(v)
        del weight[v]
        steps.append(BlowDownStep(g.ids[v], tuple(g.ids[u] for u in nbrs)))
    return ContractionTrace(steps=tuple(steps), empty=True)


class DecompositionCertificate(NamedTuple):
    """Embedding of a minimal graph into a non-singular supergraph.

    The bamboo is the x-y tree path prolonged to two leaves z_1, z_2 of
    the original graph; weight-1 vertices are attached per the
    weight-minus-valence counts; each attached vertex determines one
    path piece from z_1, and the designated piece runs through both x
    and y.  `m` is the length of the bamboo, the A_m quotient the pair
    is pulled back from, and `positions` are the 1-based places of x
    and y along the bamboo.  `attached` and `pieces` are the leaf
    embedding's own, shared by every decomposition from the same z_1:
    they must not be mutated.
    """

    graph: WeightedDualGraph
    supergraph: WeightedDualGraph
    bamboo: tuple[str, ...]
    attached: dict[str, int]
    pieces: tuple[tuple[str, ...], ...]
    designated: int  # index into pieces
    m: int
    positions: tuple[int, int]
    contraction: ContractionTrace


@cached_on_graph
def _leaf_embedding(g: WeightedDualGraph, z1: int) -> tuple:
    """Attach weight-1 vertices for the starting leaf z1, once per leaf.

    Returns the part of a bamboo decomposition fixed by z1: the
    supergraph, the count attached to each vertex, the pieces and the
    supergraph's contraction.  Counts use weight and valence in g
    itself.  The k-th vertex attached to v is named "{v}+{k}" unless
    that id is taken, in which case the next free suffix is used.  Each
    attached vertex closes one piece, the path from z1 to it, in the
    order the vertices are attached.  More than `MAX_ATTACHED` in all
    is refused before anything is built.
    """
    surplus = sum(w - g.valence(v) for v, w in enumerate(g.weights))
    if surplus > MAX_ATTACHED:
        raise BadWeight(f"weights exceed valences by more than {MAX_ATTACHED} in all")
    # g keeps its indices 0..n-1; attached vertices take n, n+1, ...
    ids = list(g.ids)
    edges = [(g.ids[i], g.ids[j]) for i, j in g.edges]
    taken = set(g.ids)
    attached: dict[str, int] = {}
    pieces: list[tuple[str, ...]] = []
    for v, vid in enumerate(g.ids):
        w, val = g.weights[v], g.valence(v)
        count = max(w - val - 1, 0) if v == z1 else w - val
        attached[vid] = count
        if count:
            trunk = tuple(g.ids[u] for u in g.path(z1, v))
        suffix = 1
        for _ in range(count):
            while f"{vid}+{suffix}" in taken:
                suffix += 1
            aux_id = f"{vid}+{suffix}"
            taken.add(aux_id)
            suffix += 1
            edges.append((vid, aux_id))
            ids.append(aux_id)
            pieces.append(trunk + (aux_id,))
    weights = g.weights + (1,) * (len(ids) - g.n)
    supergraph = WeightedDualGraph(zip(ids, weights), edges, auxiliary=True)
    return supergraph, attached, tuple(pieces), contracts_to_empty(supergraph)


def decompose_minimal(g: WeightedDualGraph, x: str, y: str) -> DecompositionCertificate:
    """Bamboo decomposition of a minimal graph through the vertices x and y.

    The supergraph, its pieces and its contraction depend only on the
    starting leaf z_1 and are built once per leaf of g.
    """
    if x == y:
        raise SameVertex("decomposition needs two distinct vertices")
    if not is_minimal(g):
        raise NotMinimal("bamboo decomposition requires a minimal graph")
    xi, yi = g.index_of(x), g.index_of(y)

    core = g.path(xi, yi)
    head: list[int] = []
    tail: list[int] = []
    for walk, prev, v in ((head, core[1], core[0]), (tail, core[-2], core[-1])):
        # prolong beyond v, away from prev, by smallest-index neighbours to a leaf
        while g.valence(v) > 1:
            nbrs = g.adj[v]
            prev, v = v, nbrs[1] if nbrs[0] == prev else nbrs[0]
            walk.append(v)
    bamboo = head[::-1] + list(core) + tail
    supergraph, attached, pieces, contraction = _leaf_embedding(g, bamboo[0])
    # a path from z_1 through y has y at y's bamboo index, and x before it;
    # z_2 is a leaf of g, so it carries a weight-1 vertex and such a piece exists
    py = len(head) + len(core)
    designated = next(k for k, p in enumerate(pieces) if p[py - 1 : py] == (y,))

    return DecompositionCertificate(
        graph=g,
        supergraph=supergraph,
        bamboo=tuple(g.ids[v] for v in bamboo),
        attached=attached,
        pieces=pieces,
        designated=designated,
        m=len(bamboo),
        positions=(len(head) + 1, py),
        contraction=contraction,
    )


class BambooEvidence(NamedTuple):
    """What a decomposition through two vertices proves their pair with:
    its own tuples, shared by both orders of the pair and copied nowhere."""

    bamboo: tuple[str, ...]
    positions: tuple[int, int]
    piece: tuple[str, ...]  # the designated piece, as held by the leaf embedding


class Certificate(NamedTuple):
    """Proof that closure(N_alpha) is not in closure(N_beta), for every
    ordered pair of a minimal graph.

    `bamboos[i][j - i - 1]` is the bamboo evidence of the vertices i < j,
    and ray column `rays[b]` is the order witness of every pair (a, b).
    Each pair's evidence dict is made when it is asked for.
    """

    graph: WeightedDualGraph
    rays: tuple[Cycle, ...]
    bamboos: tuple[tuple[BambooEvidence, ...], ...]

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Every ordered pair (alpha, beta) of vertex ids, in sorted order."""
        ids = sorted(self.graph.ids)
        return ((a, b) for a in ids for b in ids if a != b)

    def evidence(self, alpha: str, beta: str) -> dict[str, Any]:
        a, b = self.graph.index[alpha], self.graph.index[beta]
        if a == b:
            raise SameVertex("a certificate proves pairs of distinct vertices")
        lo, hi = (a, b) if a < b else (b, a)
        ev = self.bamboos[lo][hi - lo - 1]
        m = len(ev.bamboo)
        px, py = ev.positions
        rel = an_relation(m, px - 1, py - 1)
        return {
            "bamboo": ev.bamboo,
            "quotient": f"A_{m}",
            "positions": ev.positions,
            "designated_piece": ev.piece,
            "supergraph_contracts": True,
            "witness_ij": rel.witness_ij,
            "witness_ji": rel.witness_ji,
            "order_witness": self.rays[b],
        }


def certify_minimal(g: WeightedDualGraph) -> Certificate:
    """Prove every ordered-pair non-inclusion on a minimal graph.

    Each unordered pair {x, y} gets a bamboo decomposition placing x and
    y on the weight-2 quotient A_m, where every pair is incomparable; the
    map onto A_m exists because the supergraph blows down, which is
    checked.  On a minimal graph column j of the ray basis peaks strictly
    at j (Lipman 1969), so the order criterion proves every ordered pair
    on g as well, and each pair's evidence carries its order witness; a
    pair without one raises `InconsistentRelation`.  Every check runs
    here, before anything is written, so a failure leaves no report.

    The bamboo evidence of `(alpha, beta)`, that is `bamboo`,
    `positions`, `designated_piece`, `witness_ij` and `witness_ji`, is
    that of the decomposition through the two vertices in vertex-index
    order, so `(alpha, beta)` and `(beta, alpha)` carry the same values.
    Only `order_witness` is oriented: lower at alpha than at beta.
    """
    if not is_minimal(g):
        raise NotMinimal("certification requires a minimal graph")
    rm = relation_matrix(g)
    bamboos = []
    for xi in range(g.n):
        row = []
        for yi in range(xi + 1, g.n):
            x, y = g.ids[xi], g.ids[yi]
            cert = decompose_minimal(g, x, y)
            if not cert.contraction.empty:
                raise InconsistentRelation(f"supergraph for {x!r}, {y!r} does not blow down")
            rel = rm.get(xi, yi)
            for below, above, witness in ((x, y, rel.witness_ij), (y, x, rel.witness_ji)):
                if witness is None:
                    raise InconsistentRelation(f"no order witness for {below!r} below {above!r}")
            row.append(BambooEvidence(cert.bamboo, cert.positions, cert.pieces[cert.designated]))
        bamboos.append(tuple(row))
    return Certificate(graph=g, rays=rm.rays, bamboos=tuple(bamboos))


def serialize_certificate(c: Certificate) -> dict[str, Any]:
    """The certificate's report; "pairs" is a lazy array, each pair made
    from the shared records while it is written."""
    # certify_minimal proves every pair by both rules or raises, so each
    # pair is "Proven" and none is open; the report keeps both fields
    return {
        "graph": serialize_graph(c.graph),
        "restriction": "order relation computed over a negative-definite graph",
        "fundamental_cycle": list(fundamental_cycle(c.graph)),
        "pairs": LazyArray(lambda: (
            {
                "alpha": alpha,
                "beta": beta,
                "status": "Proven",
                "rules": ["Propagation", "OrderCriterion"],
                "evidence": c.evidence(alpha, beta),
            }
            for alpha, beta in c.pairs()
        )),
        "open_pairs": [],
    }


def serialize_decomposition(cert: DecompositionCertificate) -> dict[str, Any]:
    """The decomposition's report; its own tuples and `attached` dict are
    handed to the writer, not copied, since the pieces alone hold
    O(surplus x depth) ids."""
    return {
        "graph": serialize_graph(cert.graph),
        "supergraph": serialize_graph(cert.supergraph),
        "bamboo": cert.bamboo,
        "attached": cert.attached,
        "pieces": cert.pieces,
        "designated": cert.designated,
        "m": cert.m,
        "positions": cert.positions,
        "contracts_to_empty": cert.contraction.empty,
        "contraction_steps": [
            {"vertex": s.vertex, "neighbors": list(s.neighbors)}
            for s in cert.contraction.steps
        ],
    }


def supergraph_dot(cert: DecompositionCertificate) -> str:
    """DOT text of the supergraph with attached weight-1 vertices highlighted."""
    sg = cert.supergraph
    original = set(cert.graph.ids)
    lines = ["graph decomposition_supergraph {"]
    for vid, w in zip(sg.ids, sg.weights):
        style = "" if vid in original else ", style=filled, fillcolor=lightgrey"
        label = dot_quote(f"{vid} ({w})")
        lines.append(f"  {dot_quote(vid)} [label={label}{style}];")
    for i, j in sorted(sg.edges):
        lines.append(f"  {dot_quote(sg.ids[i])} -- {dot_quote(sg.ids[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
