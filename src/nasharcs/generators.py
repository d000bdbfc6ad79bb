"""Built-in graph families and seeded random corpora for tests and the CLI."""
from __future__ import annotations

import random

from .cycles import is_rational
from .errors import BadParameter
from .graph import WeightedDualGraph, graph_is_negative_definite, make_graph


def an_graph(n: int) -> WeightedDualGraph:
    """Weight-2 bamboo with n vertices (dual graph of z^(n+1) = x y)."""
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    ids = [f"E{k}" for k in range(1, n + 1)]
    return make_graph(
        [(vid, 2) for vid in ids],
        [(ids[k], ids[k + 1]) for k in range(n - 1)],
    )


def e6_graph() -> WeightedDualGraph:
    """Canonical labeling: chain v1-v2-v3-v4-v5 with v6 attached to v3, all weights 2."""
    ids = [f"v{k}" for k in range(1, 7)]
    edges = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v3", "v6")]
    return make_graph([(vid, 2) for vid in ids], edges)


def dn_shape_graph(n: int, weights: list[int] | None = None) -> WeightedDualGraph:
    """Tree shaped like D_n: chain v1..v_{n-2} with v_{n-1}, v_n forked on v_{n-2}."""
    if n < 4:
        raise BadParameter(f"n must be >= 4, got {n}")
    ids = [f"v{k}" for k in range(1, n + 1)]
    if weights is None:
        weights = [2] * n
    if len(weights) != n:
        raise BadParameter("need one weight per vertex")
    edges = [(ids[k], ids[k + 1]) for k in range(n - 3)]
    edges += [(ids[n - 3], ids[n - 2]), (ids[n - 3], ids[n - 1])]
    return make_graph(list(zip(ids, weights)), edges)


def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree via a Pruefer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    for v in prufer:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def _tree_from_edges(
    n: int, edges: list[tuple[int, int]], weights: list[int]
) -> WeightedDualGraph:
    ids = [f"v{k}" for k in range(1, n + 1)]
    return make_graph(
        list(zip(ids, weights)),
        [(ids[i], ids[j]) for i, j in edges],
    )


def random_negative_definite_graph(
    rng: random.Random, max_vertices: int = 12, max_weight: int = 5
) -> WeightedDualGraph:
    """Rejection-sample a random weighted tree until negative definite."""
    while True:
        n = rng.randint(1, max_vertices)
        edges = random_tree_edges(n, rng)
        weights = [rng.randint(2, max_weight) for _ in range(n)]
        g = _tree_from_edges(n, edges, weights)
        if graph_is_negative_definite(g):
            return g


def random_minimal_graph(
    rng: random.Random, max_vertices: int = 12, max_extra: int = 2
) -> WeightedDualGraph:
    """Random tree with weight >= max(valence, 2) everywhere, rationality-checked."""
    while True:
        n = rng.randint(2, max_vertices)
        edges = random_tree_edges(n, rng)
        valence = [0] * n
        for i, j in edges:
            valence[i] += 1
            valence[j] += 1
        weights = [
            max(valence[k], 2) + rng.randint(0, max_extra) for k in range(n)
        ]
        g = _tree_from_edges(n, edges, weights)
        if graph_is_negative_definite(g) and is_rational(g):
            return g
