"""The built-in A_n graph family used by `an-order`."""
from __future__ import annotations

from .errors import BadParameter
from .graph import WeightedDualGraph


def an_graph(n: int) -> WeightedDualGraph:
    """Weight-2 bamboo with n vertices (dual graph of z^(n+1) = x y)."""
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    ids = [f"E{k}" for k in range(1, n + 1)]
    return WeightedDualGraph(
        [(vid, 2) for vid in ids],
        [(ids[k], ids[k + 1]) for k in range(n - 1)],
    )
