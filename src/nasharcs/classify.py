"""Graph classification, bamboo decomposition, and minimal certification.

Implements the blow-down contraction calculus, recognition of minimal
and weight-2 bamboo graphs, the embedding of a minimal graph into a
non-singular supergraph by attaching weight-1 vertices along a chosen
bamboo, and the propagation rule that transports non-inclusion proofs
from a quotient singularity back to the source.  `certify_minimal` ties
these together into a full certificate for every ordered divisor pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .cycles import fundamental_cycle, is_rational
from .errors import BadWeight, NotInImage, NotMinimal, NotRational, SameVertex
from .generators import an_graph
from .graph import (
    WeightedDualGraph,
    cached_on_graph,
    dot_quote,
    graph_is_negative_definite,
    make_graph,
    rooted,
    serialize_graph,
)
from .order import NashRelation, an_relation, relation_matrix

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


@dataclass(frozen=True)
class BlowDownStep:
    vertex: str
    neighbors: tuple[str, ...]  # reconnected when there are two


@dataclass(frozen=True)
class ContractionTrace:
    steps: tuple[BlowDownStep, ...]
    empty: bool  # False when the blow-downs stop short of Empty


def contracts_to_empty(g: WeightedDualGraph) -> ContractionTrace:
    """Greedy blow-down of weight-1, valence <= 2 vertices, smallest index first."""
    # dicts keep insertion order across deletions, so scanning `weight`
    # visits the vertices left by index and the first eligible is smallest
    weight = dict(zip(g.ids, g.weights))
    adj: dict[str, set[str]] = {vid: set() for vid in g.ids}
    for i, j in g.edges:
        adj[g.ids[i]].add(g.ids[j])
        adj[g.ids[j]].add(g.ids[i])
    order = {vid: k for k, vid in enumerate(g.ids)}
    steps: list[BlowDownStep] = []
    while weight:
        for vid in weight:
            if weight[vid] != 1 or len(adj[vid]) > 2:
                continue
            if len(adj[vid]) == 2:
                a, b = adj[vid]
                if b in adj[a]:  # joining would create a multi-edge
                    continue
            break
        else:
            return ContractionTrace(steps=tuple(steps), empty=False)
        nbrs = sorted(adj[vid], key=order.__getitem__)
        for u in nbrs:
            weight[u] -= 1
            adj[u].discard(vid)
        if len(nbrs) == 2:
            adj[nbrs[0]].add(nbrs[1])
            adj[nbrs[1]].add(nbrs[0])
        del weight[vid], adj[vid]
        steps.append(BlowDownStep(vertex=vid, neighbors=tuple(nbrs)))
    return ContractionTrace(steps=tuple(steps), empty=True)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Embedding of a minimal graph into a non-singular supergraph.

    The bamboo is the x-y tree path prolonged to two leaves z_1, z_2 of
    the original graph; weight-1 vertices are attached per the
    weight-minus-valence counts; each attached vertex determines one
    path piece from z_1, and the designated piece runs through both x
    and y.  `m` is the length of the bamboo, the A_m quotient the pair
    is pulled back from, and `positions` are the 1-based places of x
    and y along the bamboo.
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


def _extend_to_leaf(g: WeightedDualGraph, path: list[int], end: int) -> list[int]:
    """Prolong the path beyond `end` by smallest-index neighbors until a leaf."""
    on_path = set(path)
    tail = [end]
    while True:
        options = [u for u in g.neighbors(tail[-1]) if u not in on_path]
        if not options:
            return tail[1:]
        nxt = min(options)
        on_path.add(nxt)
        tail.append(nxt)


@dataclass(frozen=True)
class _LeafEmbedding:
    """The part of a bamboo decomposition fixed by its starting leaf z_1."""

    supergraph: WeightedDualGraph
    attached: dict[str, int]
    pieces: tuple[tuple[str, ...], ...]
    piece_members: tuple[frozenset[str], ...]
    contraction: ContractionTrace


@cached_on_graph
def _leaf_embedding(g: WeightedDualGraph, z1: int) -> _LeafEmbedding:
    """Attach weight-1 vertices for the starting leaf z1, once per leaf.

    Counts use weight and valence in g itself.  The k-th vertex attached
    to v is named "{v}+{k}" unless that id is taken, in which case the
    next free suffix is used.  More than `MAX_ATTACHED` in all is refused
    before anything is built.
    """
    surplus = sum(w - g.valence(v) for v, w in enumerate(g.weights))
    if surplus > MAX_ATTACHED:
        raise BadWeight(f"weights exceed valences by more than {MAX_ATTACHED} in all")
    vertices = list(zip(g.ids, g.weights))
    edges = [(g.ids[i], g.ids[j]) for i, j in sorted(g.edges)]
    taken = set(g.ids)
    attached: dict[str, int] = {}
    aux_of: list[list[str]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        w, val = g.weights[v], g.valence(v)
        count = max(w - val - 1, 0) if v == z1 else w - val
        attached[g.ids[v]] = count
        suffix = 1
        for _ in range(count):
            while f"{g.ids[v]}+{suffix}" in taken:
                suffix += 1
            aux_id = f"{g.ids[v]}+{suffix}"
            taken.add(aux_id)
            suffix += 1
            vertices.append((aux_id, 1))
            edges.append((g.ids[v], aux_id))
            aux_of[v].append(aux_id)
    supergraph = make_graph(vertices, edges, auxiliary=True)

    # one piece per weight-1 vertex: the path from z_1 to it, in the
    # order the weight-1 vertices were attached
    order, parent = rooted(g, z1)
    trunk: list[tuple[str, ...]] = [()] * g.n
    trunk[z1] = (g.ids[z1],)
    for v in order[1:]:
        trunk[v] = trunk[parent[v]] + (g.ids[v],)
    pieces = tuple(trunk[v] + (aux_id,) for v in range(g.n) for aux_id in aux_of[v])

    return _LeafEmbedding(
        supergraph=supergraph,
        attached=attached,
        pieces=pieces,
        piece_members=tuple(frozenset(p) for p in pieces),
        contraction=contracts_to_empty(supergraph),
    )


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

    core = list(g.path(xi, yi))
    head = _extend_to_leaf(g, core, core[0])
    tail = _extend_to_leaf(g, core, core[-1])
    bamboo = list(reversed(head)) + core + tail
    emb = _leaf_embedding(g, bamboo[0])

    designated = next(
        (k for k, members in enumerate(emb.piece_members) if x in members and y in members),
        None,
    )
    assert designated is not None  # z_2 is a leaf of g, so it carries an aux vertex

    return DecompositionCertificate(
        graph=g,
        supergraph=emb.supergraph,
        bamboo=tuple(g.ids[v] for v in bamboo),
        attached=dict(emb.attached),
        pieces=emb.pieces,
        designated=designated,
        m=len(bamboo),
        positions=(bamboo.index(xi) + 1, bamboo.index(yi) + 1),
        contraction=emb.contraction,
    )


class Rule:
    ORDER_CRITERION = "OrderCriterion"
    PROPAGATION = "Propagation"


@dataclass
class CertificateEntry:
    rules: list[str] = field(default_factory=list)
    evidence: dict[str, Any] = field(default_factory=dict)


@dataclass
class Certificate:
    """Per-ordered-pair proof record that closure(N_alpha) is not in closure(N_beta)."""

    graph: WeightedDualGraph
    entries: dict[tuple[str, str], CertificateEntry]  # keyed by (alpha, beta)


def propagate(
    source: WeightedDualGraph,
    quotient: WeightedDualGraph,
    mapping: dict[int, int],
    pair: tuple[int, int],
    relation: NashRelation,
) -> list[tuple[int, int]]:
    """Pull a quotient non-inclusion result back along a dominant birational map.

    `mapping` sends quotient vertex indices to source vertex indices
    (injectively); returns the ordered source pairs proven by the
    quotient relation on `pair`.
    """
    for g in (source, quotient):
        if not (graph_is_negative_definite(g) and is_rational(g)):
            raise NotRational("propagation requires rational graphs on both sides")
    i, j = pair
    if i not in mapping or j not in mapping:
        raise NotInImage(f"pair {pair} not covered by the vertex mapping")
    if len(set(mapping.values())) != len(mapping):
        raise NotInImage("vertex mapping must be injective")
    si, sj = mapping[i], mapping[j]
    proven = []
    if relation.witness_ij is not None:
        proven.append((si, sj))
    if relation.witness_ji is not None:
        proven.append((sj, si))
    return proven


def certify_minimal(g: WeightedDualGraph) -> Certificate:
    """Prove every ordered-pair non-inclusion on a minimal graph.

    Each unordered pair {x, y} gets a bamboo decomposition whose
    designated piece realizes x and y as distinct divisors of a weight-2
    bamboo quotient; incomparability there propagates back to prove both
    directions.  Pairs the order criterion also settles directly on g
    are cross-annotated.
    """
    if not is_minimal(g):
        raise NotMinimal("certification requires a minimal graph")
    rm = relation_matrix(g)
    entries: dict[tuple[str, str], CertificateEntry] = {}
    quotients: dict[int, WeightedDualGraph] = {}
    for xi in range(g.n):
        for yi in range(xi + 1, g.n):
            x, y = g.ids[xi], g.ids[yi]
            cert = decompose_minimal(g, x, y)
            piece = cert.pieces[cert.designated]
            if cert.m not in quotients:
                quotients[cert.m] = an_graph(cert.m)
            quotient = quotients[cert.m]
            px, py = cert.positions
            rel = an_relation(cert.m, px - 1, py - 1)
            mapping = {
                k: g.index_of(vid) for k, vid in enumerate(cert.bamboo)
            }
            proven = propagate(g, quotient, mapping, (px - 1, py - 1), rel)
            assert set(proven) == {(xi, yi), (yi, xi)}
            evidence = {
                "bamboo": list(cert.bamboo),
                "quotient": f"A_{cert.m}",
                "positions": list(cert.positions),
                "designated_piece": list(piece),
                "supergraph_contracts": cert.contraction.empty,
                "witness_ij": rel.witness_ij,
                "witness_ji": rel.witness_ji,
            }
            for a, b in ((xi, yi), (yi, xi)):
                entry = CertificateEntry(rules=[Rule.PROPAGATION], evidence=dict(evidence))
                witness = rm.get(a, b).witness_ij
                if witness is not None:
                    entry.rules.append(Rule.ORDER_CRITERION)
                    entry.evidence["order_witness"] = witness
                entries[(g.ids[a], g.ids[b])] = entry
    return Certificate(graph=g, entries=entries)


def serialize_certificate(c: Certificate) -> dict[str, Any]:
    # certify_minimal proves every pair by propagation or raises, so each
    # pair is "Proven" and none is open; the report keeps both fields
    return {
        "graph": serialize_graph(c.graph),
        "restriction": "order relation computed over a negative-definite graph",
        "fundamental_cycle": list(fundamental_cycle(c.graph)),
        "pairs": [
            {
                "alpha": alpha,
                "beta": beta,
                "status": "Proven",
                "rules": e.rules,
                "evidence": e.evidence,
            }
            for (alpha, beta), e in sorted(c.entries.items())
        ],
        "open_pairs": [],
    }


def serialize_decomposition(cert: DecompositionCertificate) -> dict[str, Any]:
    return {
        "graph": serialize_graph(cert.graph),
        "supergraph": serialize_graph(cert.supergraph),
        "bamboo": list(cert.bamboo),
        "attached": dict(cert.attached),
        "pieces": [list(p) for p in cert.pieces],
        "designated": cert.designated,
        "m": cert.m,
        "positions": list(cert.positions),
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
