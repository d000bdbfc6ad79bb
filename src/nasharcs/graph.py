"""Weighted dual resolution graphs.

A graph has one vertex per exceptional curve, an edge per intersection
point, and a positive integer weight per vertex equal to minus the
curve's self-intersection.  Graphs must be trees; weights must be >= 2
unless the graph is flagged auxiliary (auxiliary graphs carry the
weight-1 vertices produced by the embedding constructions).
"""
from __future__ import annotations

import json
import math
import sys
from functools import wraps
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .errors import BadWeight, MalformedDocument, NotATree


T = TypeVar("T")


class WeightedDualGraph:
    """Immutable weighted tree; vertices are dense indices 0..n-1 with string ids.

    `WeightedDualGraph(vertices, edges, auxiliary=False)` takes (id,
    weight) pairs, whose order fixes the indices, and id-labelled edges.
    It is the only place a graph is checked, each check once and in this
    order: duplicate ids; per edge, an unknown endpoint, a self-loop, a
    multi-edge; no vertices; per weight, an integer >= 1, and 1 only if
    `auxiliary`; then the tree shape.

    The fields are `ids`, `weights`, `edges` (index pairs (i, j) with
    i < j, as a frozenset) and `auxiliary`, and no attribute can be
    assigned once set; graphs compare by identity.  The constructor also
    builds `adj`, each vertex's sorted neighbours, and `index`, the id ->
    index dict.  Other derived per-graph data (rooted walks,
    definiteness, fundamental cycle, ray basis, relation table, ...) is
    memoized in `_memo`, a dict owned by this instance and filled by
    functions decorated with `cached_on_graph`; it is dropped with the
    graph, and a lookup never hashes or compares the graph.
    """

    __slots__ = ("ids", "weights", "edges", "auxiliary", "adj", "index", "_memo")

    def __init__(
        self,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, str]],
        auxiliary: bool = False,
    ) -> None:
        vlist = list(vertices)
        n = len(vlist)
        index = {vid: k for k, (vid, _) in enumerate(vlist)}
        if len(index) != n:
            raise MalformedDocument("duplicate vertex ids")
        pairs: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            if a not in index or b not in index:
                raise MalformedDocument(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise MalformedDocument(f"self-loop on {a!r}")
            i, j = sorted((index[a], index[b]))
            if (i, j) in pairs:
                raise MalformedDocument(f"multi-edge between {a!r} and {b!r}")
            pairs.add((i, j))
            adj[i].append(j)
            adj[j].append(i)
        if n == 0:
            raise MalformedDocument("graph needs at least one vertex")
        for _, w in vlist:
            if not isinstance(w, int) or w < 1:
                raise BadWeight(f"weight {w!r} must be an integer >= 1")
            if w == 1 and not auxiliary:
                raise BadWeight("weight 1 only allowed on auxiliary graphs")
        if len(pairs) != n - 1 or len(_walk(adj, 0)[0]) != n:
            raise NotATree("graph must be a connected tree")
        self.ids = tuple(vid for vid, _ in vlist)
        self.weights = tuple(w for _, w in vlist)
        self.edges = frozenset(pairs)
        self.auxiliary = auxiliary
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.index = index
        self._memo: dict = {}

    def __setattr__(self, name: str, value: Any) -> None:
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return len(self.ids)

    def index_of(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise MalformedDocument(f"unknown vertex id {vid!r}") from None

    def valence(self, i: int) -> int:
        return len(self.adj[i])

    def path(self, i: int, j: int) -> tuple[int, ...]:
        """Unique tree path from i to j, endpoints included."""
        parent = rooted(self, i)[1]
        out = [j]
        while out[-1] != i:
            out.append(parent[out[-1]])
        return tuple(reversed(out))


def parse_graph(document: str | dict[str, Any]) -> WeightedDualGraph:
    """Parse the JSON graph schema; see `serialize_graph` for the format."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise MalformedDocument(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise MalformedDocument("invalid JSON: nested too deeply") from None
    if not isinstance(document, dict):
        raise MalformedDocument("document must be a JSON object")
    try:
        raw_vertices = document["vertices"]
        raw_edges = document.get("edges", [])
    except (TypeError, KeyError):
        raise MalformedDocument("missing 'vertices'") from None
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise MalformedDocument("'vertices' and 'edges' must be lists")
    vertices = []
    for v in raw_vertices:
        if not isinstance(v, dict) or "id" not in v or "w" not in v:
            raise MalformedDocument(f"bad vertex entry {v!r}")
        vid, w = v["id"], v["w"]
        # bool is a subclass of int, but `true` is not a weight
        if not isinstance(vid, str) or not isinstance(w, int) or isinstance(w, bool):
            raise MalformedDocument(f"bad vertex entry {v!r}")
        # JSON escapes can spell a lone surrogate, which no UTF-8 output can hold
        try:
            vid.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedDocument(f"vertex id {vid!r} is not valid Unicode") from None
        vertices.append((vid, w))
    # -M is positive definite wherever a report prints det(-M) or a cofactor,
    # so by Hadamard's inequality each is at most the product of the weights;
    # bounding that product keeps every printed integer under the
    # interpreter's int/str digit limit (0 means no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = sum(w.bit_length() for _, w in vertices)
    if limit and bits > limit * math.log2(10):
        raise BadWeight(
            f"the weights total {bits} bits, past the {limit}-digit limit on printed integers"
        )
    edges = []
    for e in raw_edges:
        # an array or object endpoint would reach the id lookup unhashable
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
            raise MalformedDocument(f"bad edge entry {e!r}")
        edges.append((e[0], e[1]))
    auxiliary = document.get("auxiliary", False)
    if not isinstance(auxiliary, bool):
        raise MalformedDocument(f"'auxiliary' must be true or false, got {auxiliary!r}")
    return WeightedDualGraph(vertices, edges, auxiliary=auxiliary)


def serialize_graph(g: WeightedDualGraph) -> dict[str, Any]:
    """Emit the JSON schema; vertex order is preserved."""
    doc: dict[str, Any] = {
        "vertices": [{"id": vid, "w": w} for vid, w in zip(g.ids, g.weights)],
        "edges": sorted([g.ids[i], g.ids[j]] for i, j in g.edges),
    }
    if g.auxiliary:
        doc["auxiliary"] = True
    return doc


def dot_quote(text: str) -> str:
    """`text` as a double-quoted DOT id, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cached_on_graph(fn: Callable[..., T]) -> Callable[..., T]:
    """Memoize `fn(g, *args)` in the graph's own `_memo`, keyed on `(fn, *args)`."""

    @wraps(fn)
    def wrapper(g: WeightedDualGraph, *args: Any) -> T:
        memo = g._memo
        key = (fn, *args)
        if key in memo:
            return memo[key]
        out = memo[key] = fn(g, *args)
        return out

    return wrapper


def _walk(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the vertices reachable from `root`, and parents.

    `parent[v]` is the vertex that reached v, -1 for the root and for
    vertices not reached.  A seen-array marks visited vertices, so the
    walk also ends on edge sets that have a cycle.
    """
    seen = [False] * len(adj)
    parent = [-1] * len(adj)
    seen[root] = True
    order = [root]
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    return order, parent


@cached_on_graph
def rooted(g: WeightedDualGraph, root: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first vertex order from `root`, and each vertex's parent (-1 at the root)."""
    order, parent = _walk(g.adj, root)
    return tuple(order), tuple(parent)


def tree_determinants(
    g: WeightedDualGraph, root: int
) -> tuple[list[int], list[int]] | None:
    """Subtree determinants of -M rooted at `root`; None if -M is not definite.

    Returns (D, B): D(v) is det(-M) of the subtree at v and B(v) the
    product of D over v's children, so D(v) = w(v) B(v) - S(v) with
    S(v) = sum over the children c of B(c) B(v) / D(c) (`off` below).  D(v) / B(v) is
    the pivot of leaf-to-root elimination, which causes no fill-in on a
    tree; so -M is positive definite exactly when every D(v) > 0, and
    then det(-M) = D(root) (Eisenbud-Neumann 1985).  One leaf-to-root
    pass over integers: each finished child c folds into its parent p
    as S(p) <- S(p) D(c) + B(c) B(p) and B(p) <- B(p) D(c), so not even
    a division is needed.
    """
    order, parent = rooted(g, root)
    det = [0] * g.n
    below = [1] * g.n
    off = [0] * g.n
    for v in reversed(order):
        d = g.weights[v] * below[v] - off[v]
        if d <= 0:
            return None
        det[v] = d
        p = parent[v]
        if p >= 0:
            off[p] = off[p] * d + below[v] * below[p]
            below[p] *= d
    return det, below


@cached_on_graph
def graph_is_negative_definite(g: WeightedDualGraph) -> bool:
    """-M positive definite, by the subtree determinants rooted at vertex 0."""
    return tree_determinants(g, 0) is not None
