"""Graph builders for the tests: the 6-vertex E_6 example and seeded
random trees, negative-definite trees and minimal graphs.

The seeded corpora in conftest.py are drawn with these, so changing how
any of them draws changes those corpora.
"""
from __future__ import annotations

import random

from nasharcs.cycles import is_rational
from nasharcs.graph import WeightedDualGraph, graph_is_negative_definite


def graph_fields(g: WeightedDualGraph) -> tuple:
    """The four fields that fix a graph; graphs themselves compare by identity."""
    return g.ids, g.weights, g.edges, g.auxiliary


def e6_graph() -> WeightedDualGraph:
    """Canonical labeling: chain v1-v2-v3-v4-v5 with v6 attached to v3, all weights 2."""
    ids = [f"v{k}" for k in range(1, 7)]
    edges = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v3", "v6")]
    return WeightedDualGraph([(vid, 2) for vid in ids], edges)


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
    return WeightedDualGraph(
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
