"""Graph classification, bamboo decomposition, and minimal certification.

Implements the blow-down contraction calculus, recognition of minimal
and weight-2 bamboo graphs, and the embedding of a minimal graph into a
non-singular supergraph by attaching weight-1 vertices along a chosen
bamboo.  `certify_minimal` ties these together into a full certificate
for every ordered divisor pair: each pair is proven by its relation on
the A_m quotient of its own decomposition, read while the pair is
written, once every leaf's supergraph is checked to blow down.
"""
from __future__ import annotations

import heapq
from itertools import count, islice
from typing import Any, Iterator, NamedTuple

from .cycles import Cycle, fundamental_cycle, is_rational
from .errors import BadWeight, InconsistentRelation, NotMinimal, SameVertex
from .graph import (
    WeightedDualGraph,
    cached_on_graph,
    dot_quote,
    graph_is_negative_definite,
    rooted,
    serialize_graph,
)
from .order import an_relation, relation_matrix

# most weight-1 vertices a bamboo decomposition may attach, counted as the
# sum of weight minus valence: each supergraph built and blown down grows
# with it, and the `decompose` report with it times the depth of the tree
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

    Leaves are enough for the supergraphs `_supergraph` builds:
    there weight - valence is 0 at every vertex but z_1, where it is 1,
    and blowing down a leaf lowers both at its neighbour, so a weight-1
    vertex is always a leaf, or z_1 once it is the last vertex left.
    """
    # a vertex turns eligible only when a neighbour is blown down, so the heap
    # holds every eligible vertex; an entry since blown down or at weight 0 is stale
    weight = list(g.weights)
    adj = [set(a) for a in g.adj]
    eligible = [v for v in range(g.n) if weight[v] == 1 and len(adj[v]) <= 1]
    steps: list[BlowDownStep] = []
    while eligible:
        v = heapq.heappop(eligible)
        if weight[v] != 1:
            continue
        nbrs = sorted(adj[v])
        for u in nbrs:
            weight[u] -= 1
            adj[u].discard(v)
            if weight[u] == 1 and len(adj[u]) <= 1:
                heapq.heappush(eligible, u)
        weight[v] = 0
        steps.append(BlowDownStep(g.ids[v], tuple(g.ids[u] for u in nbrs)))
    return ContractionTrace(steps=tuple(steps), empty=len(steps) == g.n)


class DecompositionCertificate(NamedTuple):
    """Embedding of a minimal graph into a non-singular supergraph.

    The bamboo is the x-y tree path prolonged to two leaves z_1, z_2 of
    the original graph; weight-1 vertices are attached per the
    weight-minus-valence counts, each closing a piece, the path from z_1
    to the vertex it hangs on.  `designated_piece` is the first piece
    through both x and y, and `designated` its index; no supergraph is
    kept.  `m` is the length of the bamboo, the A_m quotient the pair is
    pulled back from, and `positions` are x's and y's 1-based places on it.
    """

    graph: WeightedDualGraph
    bamboo: tuple[str, ...]
    designated: int  # index of a piece
    designated_piece: tuple[str, ...]
    m: int
    positions: tuple[int, int]


def _attached(g: WeightedDualGraph, z1: int) -> Iterator[tuple[int, str]]:
    """(v, id) of each weight-1 vertex attached for the leaf z1, in order:
    weight minus valence in g of them at v, less one at z1, named "{v}+{k}"
    for k = 1, 2, ... skipping every id g has, so ids attached to two
    vertices never clash (the text after an id's last "+" is its suffix).
    More than `MAX_ATTACHED` in all is refused before any is named."""
    if sum(w - g.valence(v) for v, w in enumerate(g.weights)) > MAX_ATTACHED:
        raise BadWeight(f"weights exceed valences by more than {MAX_ATTACHED} in all")
    for v, vid in enumerate(g.ids):
        names = (name for name in (f"{vid}+{k}" for k in count(1)) if name not in g.index)
        # z1 is a leaf of weight >= 2 on a minimal graph, so no count is negative
        for name in islice(names, g.weights[v] - g.valence(v) - (v == z1)):
            yield v, name


def _supergraph(g: WeightedDualGraph, z1: int) -> WeightedDualGraph:
    """g with the weight-1 vertices for the leaf z1 attached, built anew
    on each call: attached vertex k, which closes piece k, is vertex `g.n + k`."""
    vertices = list(zip(g.ids, g.weights))
    edges = [(g.ids[i], g.ids[j]) for i, j in g.edges]
    for v, name in _attached(g, z1):
        vertices.append((name, 1))
        edges.append((g.ids[v], name))
    return WeightedDualGraph(vertices, edges, auxiliary=True)


@cached_on_graph
def _first_pieces(g: WeightedDualGraph, z1: int) -> dict[int, tuple[int, tuple[str, ...]]]:
    """Each vertex a piece from the leaf z1 passes -> the index and ids of
    the first piece through it, once per leaf.  A later piece through v
    runs through every vertex from z1 to v, so only v's first attached
    vertex can close a first piece."""
    first: dict[int, tuple[int, tuple[str, ...]]] = {}
    for k, (v, name) in enumerate(_attached(g, z1)):
        if v not in first:
            path = g.path(z1, v)
            piece = (k, tuple(g.ids[u] for u in path) + (name,))
            for u in path:
                first.setdefault(u, piece)
    return first


@cached_on_graph
def _path_ids(g: WeightedDualGraph, u: int, v: int) -> tuple[str, ...]:
    """The ids of the tree path from u to v, once per pair of vertices."""
    return tuple(g.ids[w] for w in g.path(u, v))


@cached_on_graph
def _positions(g: WeightedDualGraph, px: int, py: int) -> tuple[int, int]:
    """(px, py), one tuple per graph: the report writer keeps each int array it renders."""
    return px, py


def decompose_minimal(g: WeightedDualGraph, x: str, y: str) -> DecompositionCertificate:
    """Bamboo decomposition of a minimal graph through the vertices x and y.

    The first pieces through each vertex are found once per starting
    leaf z_1, and the bamboo once per pair of leaves z_1, z_2.
    """
    if x == y:
        raise SameVertex("decomposition needs two distinct vertices")
    if not is_minimal(g):
        raise NotMinimal("bamboo decomposition requires a minimal graph")
    xi, yi = g.index_of(x), g.index_of(y)
    ends = []
    for v, toward in ((xi, yi), (yi, xi)):
        # prolong beyond v, away from `toward`, by smallest-index neighbours to a leaf
        prev = rooted(g, toward)[1][v]
        while g.valence(v) > 1:
            nbrs = g.adj[v]
            prev, v = v, nbrs[1] if nbrs[0] == prev else nbrs[0]
        ends.append(v)
    bamboo = _path_ids(g, *ends)
    # z_2 is a leaf of g beyond y, so it carries a weight-1 vertex and a
    # piece runs through y
    designated, piece = _first_pieces(g, ends[0])[yi]
    return DecompositionCertificate(
        graph=g,
        bamboo=bamboo,
        designated=designated,
        designated_piece=piece,
        m=len(bamboo),
        positions=_positions(g, bamboo.index(x) + 1, bamboo.index(y) + 1),
    )


class Certificate(NamedTuple):
    """Proof that closure(N_alpha) is not in closure(N_beta), for every
    ordered pair of a minimal graph.

    Ray column `rays[b]` is the order witness of every pair (a, b).
    Each pair's evidence dict is made when it is asked for, from the
    decomposition through its two vertices.
    """

    graph: WeightedDualGraph
    rays: tuple[Cycle, ...]

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Every ordered pair (alpha, beta) of vertex ids, in sorted order."""
        ids = sorted(self.graph.ids)
        return ((a, b) for a in ids for b in ids if a != b)

    def evidence(self, alpha: str, beta: str) -> dict[str, Any]:
        g = self.graph
        a, b = g.index[alpha], g.index[beta]
        lo, hi = (a, b) if a < b else (b, a)
        cert = decompose_minimal(g, g.ids[lo], g.ids[hi])
        px, py = cert.positions
        rel = an_relation(cert.m, px - 1, py - 1)
        return {
            "bamboo": cert.bamboo,
            "quotient": f"A_{cert.m}",
            "positions": cert.positions,
            "designated_piece": cert.designated_piece,
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
    checked once per leaf of g, since the starting leaf fixes the
    supergraph, built for the check and dropped.  On a minimal graph
    column j of the ray basis peaks strictly at j (Lipman 1969), so the
    order criterion proves every ordered pair on g as well, and each
    pair's evidence carries its order witness; a pair without one raises
    `InconsistentRelation`.  Every check runs here, before anything is
    written, so a failure leaves no report; the decompositions are made
    while the pairs are written.

    The bamboo evidence of `(alpha, beta)`, that is `bamboo`,
    `positions`, `designated_piece`, `witness_ij` and `witness_ji`, is
    that of the decomposition through the two vertices in vertex-index
    order, so `(alpha, beta)` and `(beta, alpha)` carry the same values.
    Only `order_witness` is oriented: lower at alpha than at beta.
    """
    if not is_minimal(g):
        raise NotMinimal("certification requires a minimal graph")
    rm = relation_matrix(g)
    for z in range(g.n):
        if g.valence(z) == 1 and not contracts_to_empty(_supergraph(g, z)).empty:
            raise InconsistentRelation(f"supergraph from leaf {g.ids[z]!r} does not blow down")
    for (i, j), rel in rm.pairs():
        if rel.witness_ij is None:
            raise InconsistentRelation(f"no order witness for {g.ids[i]!r} below {g.ids[j]!r}")
    return Certificate(graph=g, rays=rm.rays)


def serialize_certificate(c: Certificate) -> dict[str, Any]:
    """The certificate's report; "pairs" is a generator, each pair made
    from its decomposition while it is written."""
    # certify_minimal proves every pair by both rules or raises, so each
    # pair is "Proven" and none is open; the report keeps both fields
    return {
        "graph": serialize_graph(c.graph),
        "restriction": "order relation computed over a negative-definite graph",
        "fundamental_cycle": list(fundamental_cycle(c.graph)),
        "pairs": (
            {
                "alpha": alpha,
                "beta": beta,
                "status": "Proven",
                "rules": ["Propagation", "OrderCriterion"],
                "evidence": c.evidence(alpha, beta),
            }
            for alpha, beta in c.pairs()
        ),
        "open_pairs": [],
    }


def serialize_decomposition(cert: DecompositionCertificate) -> dict[str, Any]:
    """The decomposition's report, read off the supergraph it builds: the
    count attached to a vertex is its valence there minus its valence in
    g, and "pieces" is an iterator, since the pieces hold O(surplus x
    depth) ids but share their paths from z_1."""
    g = cert.graph
    z1 = g.index[cert.bamboo[0]]
    sg = _supergraph(g, z1)
    contraction = contracts_to_empty(sg)
    return {
        "graph": serialize_graph(g),
        "supergraph": serialize_graph(sg),
        "bamboo": cert.bamboo,
        "attached": {vid: sg.valence(v) - g.valence(v) for v, vid in enumerate(g.ids)},
        "pieces": (_path_ids(g, z1, sg.adj[k][0]) + (sg.ids[k],) for k in range(g.n, sg.n)),
        "designated": cert.designated,
        "m": cert.m,
        "positions": cert.positions,
        "contracts_to_empty": contraction.empty,
        "contraction_steps": [
            {"vertex": s.vertex, "neighbors": list(s.neighbors)}
            for s in contraction.steps
        ],
    }


def supergraph_dot(cert: DecompositionCertificate) -> str:
    """DOT text of the supergraph, built here, with attached weight-1
    vertices, those at index `graph.n` and above, highlighted."""
    g = cert.graph
    sg = _supergraph(g, g.index[cert.bamboo[0]])
    lines = ["graph decomposition_supergraph {"]
    for v, (vid, w) in enumerate(zip(sg.ids, sg.weights)):
        style = "" if v < g.n else ", style=filled, fillcolor=lightgrey"
        label = dot_quote(f"{vid} ({w})")
        lines.append(f"  {dot_quote(vid)} [label={label}{style}];")
    for i, j in sorted(sg.edges):
        lines.append(f"  {dot_quote(sg.ids[i])} -- {dot_quote(sg.ids[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
