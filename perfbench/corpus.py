"""Seeded inputs for the benchmark, built without any nasharcs code.

The package's own generators call its cached functions, and their use of
the random number generator may change; the benchmark's inputs must not.
Every tree here comes from a Pruefer sequence.  Definiteness is decided by
exact leaf-to-root elimination on the tree: with d(v) = w(v) - sum over the
children c of 1/d(c), -M is positive definite exactly when every d(v) > 0.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class GraphInput:
    """One generated tree with the facts the benchmark checks outputs against."""

    ids: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    negative_definite: bool

    @property
    def n(self) -> int:
        return len(self.ids)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def valences(self) -> list[int]:
        return [len(a) for a in self.adjacency()]

    def document(self) -> dict:
        """The graph JSON schema the CLI reads."""
        return {
            "vertices": [{"id": v, "w": w} for v, w in zip(self.ids, self.weights)],
            "edges": [[self.ids[i], self.ids[j]] for i, j in self.edges],
        }

    def facts(self) -> dict:
        val = self.valences()
        hub = max(range(self.n), key=lambda v: (val[v], -v))
        return {
            "n": self.n,
            "max_valence": val[hub],
            "surplus": sum(w - v for w, v in zip(self.weights, val)),
            "hub_index": hub,
            "negative_definite": self.negative_definite,
        }


def pruefer_tree(n: int, rng: random.Random, hubs: dict[int, int]) -> Edges:
    """Tree on 0..n-1 decoded from a shuffled Pruefer sequence.

    Each hub h appears valence(h) - 1 times and the remaining entries are
    distinct non-hub vertices, so every vertex has a fixed valence: a hub
    its own, a listed vertex 2 and the rest 1.  No hubs gives a path; a
    hub of valence n - 1 a star.  The seed only moves the legs around,
    which keeps the cost of one slot steady from seed to seed.
    """
    others = [v for v in range(n) if v not in hubs]
    rng.shuffle(others)
    seq = [h for h, val in hubs.items() for _ in range(val - 1)]
    rest = n - 2 - len(seq)
    if not 0 <= rest <= len(others):
        raise ValueError(f"hub valences {hubs} do not fit {n} vertices")
    seq += others[:rest]
    rng.shuffle(seq)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = [x for x in range(n) if degree[x] == 1]
    edges.append((u, v))
    return sorted(edges)


def pivots_positive(weights: list[int] | tuple[int, ...], edges) -> bool:
    """Exact test that -M is positive definite, by leaf-to-root pivots."""
    n = len(weights)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    d = [Fraction(w) for w in weights]
    for v in reversed(order):
        if d[v] <= 0:
            return False
        if parent[v] >= 0:
            d[parent[v]] -= 1 / d[v]
    return True


def _ids(n: int, rng: random.Random) -> tuple[str, ...]:
    # a seeded prefix, so vertex ids differ from graph to graph as users' do
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    return tuple(f"{tag}{k}" for k in range(n))


def _valences(n: int, edges: Edges) -> list[int]:
    val = [0] * n
    for i, j in edges:
        val[i] += 1
        val[j] += 1
    return val


def _base_weights(val: list[int], rng: random.Random, extra: int) -> list[int]:
    """max(valence, 2) everywhere, plus `extra` units on random vertices."""
    weights = [max(v, 2) for v in val]
    for _ in range(extra):
        weights[rng.randrange(len(val))] += 1
    return weights


def minimal_graph(
    n: int, rng: random.Random, hubs: dict[int, int], extra: int
) -> GraphInput:
    """w >= max(valence, 2) everywhere: minimal, hence rational and
    negative-definite."""
    edges = pruefer_tree(n, rng, hubs)
    weights = _base_weights(_valences(n, edges), rng, extra)
    if not pivots_positive(weights, edges):
        raise AssertionError("a minimal graph must be negative-definite")
    return GraphInput(_ids(n, rng), tuple(weights), tuple(edges), True)


def non_minimal_graph(n: int, rng: random.Random, hubs: dict[int, int]) -> GraphInput:
    """Negative-definite tree whose largest hub weighs one less than its
    valence.

    Weights are max(valence, 2) elsewhere.  Trees on which the lowered hub
    leaves -M indefinite are drawn again.
    """
    top = max(hubs, key=hubs.__getitem__)
    for _ in range(1000):
        edges = pruefer_tree(n, rng, hubs)
        val = _valences(n, edges)
        weights = [max(v, 2) for v in val]
        weights[top] = val[top] - 1
        if pivots_positive(weights, edges):
            return GraphInput(_ids(n, rng), tuple(weights), tuple(edges), True)
    raise AssertionError(f"no negative-definite tree with hubs {hubs}")


def indefinite_graph(n: int, rng: random.Random, hubs: dict[int, int]) -> GraphInput:
    """All weights 2 around a hub of valence >= 5: -M is not definite."""
    edges = pruefer_tree(n, rng, hubs)
    weights = (2,) * n
    if pivots_positive(weights, edges):
        raise AssertionError("an all-2 tree with a valence-5 hub is indefinite")
    return GraphInput(_ids(n, rng), weights, tuple(edges), False)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a graph command on `graph`, or `an-arcs` with `arcs`."""

    name: str
    command: str
    graph: GraphInput | None = None
    arcs: dict | None = None

    def facts(self) -> dict:
        return self.graph.facts() if self.graph else dict(self.arcs)

    def items(self) -> int:
        """Ordered pairs decided (graph commands) or truncated arcs drawn
        (an-arcs, where a separation check draws two more per sample)."""
        if self.arcs is not None:
            return (3 if self.arcs["against"] is not None else 1) * self.arcs["samples"]
        if not self.graph.negative_definite:
            return 0
        return self.graph.n * (self.graph.n - 1)


def _hubs(n: int, spec: tuple[tuple[str, int], ...]) -> dict[int, int]:
    """Place hubs at fixed indices: 'low' from 0 up, 'high' from n - 1 down."""
    low, high, hubs = 0, n - 1, {}
    for where, valence in spec:
        if where == "low":
            hubs[low] = valence
            low += 1
        else:
            hubs[high] = valence
            high -= 1
    return hubs


# One job per slot and round.  A slot fixes n, the hub valences and their
# indices, and the weight surplus; the seed draws the tree and where the
# extra weight goes.  Slots span the input properties the cost depends on.
#   certify_minimal: (n, hubs, extra weight units per vertex)
CERTIFY_SLOTS = (
    (12, (), 3.0),
    (14, (("low", 5),), 2.0),
    (16, (("high", 4), ("high", 3)), 0.0),
    (16, (("low", 6),), 1.0),
    (20, (), 0.5),
    (20, (("low", 4), ("high", 4), ("high", 3)), 0.0),
    (24, (("high", 8),), 0.0),
    (24, (("low", 3),), 0.5),
    (28, (("low", 5), ("high", 5)), 0.0),
    (32, (("high", 6),), 0.0),
)
#   analyze_negdef: (n, hubs, definite)
ANALYZE_SLOTS = (
    (24, (("low", 6),), True),
    (24, (("high", 5), ("high", 4)), True),
    (32, (("low", 4), ("high", 6)), True),
    (32, (("low", 7),), False),
    (40, (("high", 10),), True),
    (40, (("low", 3), ("low", 5)), True),
    (48, (("high", 6), ("high", 6)), True),
    (48, (("low", 12),), False),
    (56, (("low", 8), ("high", 4)), True),
)
#   an_arcs: (n, samples, with a --against family)
ARCS_SLOTS = (
    (4, 6, False),
    (5, 4, True),
    (6, 5, False),
    (6, 3, True),
    (8, 3, False),
    (8, 2, True),
    (9, 3, False),
    (10, 2, True),
    (11, 2, False),
    (12, 1, True),
    (12, 2, False),
)

WORKLOADS = ("certify_minimal", "analyze_negdef", "an_arcs")


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    jobs = []
    if workload == "certify_minimal":
        for k, (n, spec, per_vertex) in enumerate(CERTIFY_SLOTS):
            g = minimal_graph(n, rng, _hubs(n, spec), round(per_vertex * n))
            jobs.append(Job(f"c{k:02d}-n{n}", "certify-minimal", graph=g))
    elif workload == "analyze_negdef":
        for k, (n, spec, definite) in enumerate(ANALYZE_SLOTS):
            if definite:
                g = non_minimal_graph(n, rng, _hubs(n, spec))
            else:
                g = indefinite_graph(n, rng, _hubs(n, spec))
            jobs.append(Job(f"a{k:02d}-n{n}", "analyze", graph=g))
    elif workload == "an_arcs":
        for k, (n, samples, against) in enumerate(ARCS_SLOTS):
            family = rng.randint(1, n)
            other = rng.choice([j for j in range(1, n + 1) if j != family])
            arcs = {
                "n": n,
                "family": family,
                "against": other if against else None,
                "samples": samples,
                "seed": rng.randrange(10**6),
            }
            jobs.append(Job(f"r{k:02d}-n{n}", "an-arcs", arcs=arcs))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    graphs = [(j.graph.weights, j.graph.edges) for j in jobs if j.graph]
    if len(set(graphs)) != len(graphs):
        raise AssertionError(f"two graphs of {workload} are equal")
    keys = [tuple(sorted(j.facts().items())) for j in jobs if j.arcs]
    if len(set(keys)) != len(keys):
        raise AssertionError(f"two an-arcs jobs of {workload} are equal")
    return jobs
