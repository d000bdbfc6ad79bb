"""Independent oracles used by the tests.

Deliberately naive implementations (dense intersection matrices,
cofactor and `Fraction` Gaussian determinants, the Sylvester check,
exhaustive anti-nef enumeration, a scan of every ray column for an order
witness, a blow-down that rescans every vertex after each step, a walk
of the x-y path for a bamboo decomposition, attached-vertex names
checked against every id taken so far, `Fraction` power series)
that share no code path with the package's own algorithms.  Nothing
here imports package code at run time; graphs are only read through
their public fields.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction as Q
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from nasharcs.graph import WeightedDualGraph


def cofactor_determinant(rows: list[list[Q]]) -> Q:
    n = len(rows)
    if n == 0:
        return Q(1)
    if n == 1:
        return rows[0][0]
    total = Q(0)
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [
                [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            total += sign * rows[0][j] * cofactor_determinant(minor)
        sign = -sign
    return total


def negative_definite_by_minors(rows: list[list[Q]]) -> bool:
    """Sylvester on -M with cofactor-expansion determinants."""
    neg = [[-x for x in row] for row in rows]
    n = len(rows)
    for k in range(1, n + 1):
        block = [row[:k] for row in neg[:k]]
        if cofactor_determinant(block) <= 0:
            return False
    return True


def gaussian_determinant(rows: Sequence[Sequence[Any]]) -> Q:
    """Determinant by `Fraction`-exact dense Gaussian elimination."""
    n = len(rows)
    a = [[Q(x) for x in row] for row in rows]
    assert all(len(row) == n for row in a), "matrix must be square"
    det = Q(1)
    for i in range(n):
        pivot_row = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != i:
            a[i], a[pivot_row] = a[pivot_row], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            if a[r][i] != 0:
                factor = a[r][i] / a[i][i]
                a[r] = [x - factor * y for x, y in zip(a[r], a[i])]
    return det


def leading_principal_minors(rows: Sequence[Sequence[Any]]) -> list[Q]:
    """Gaussian determinants of the leading principal blocks, sizes 1..n."""
    return [
        gaussian_determinant([row[:k] for row in rows[:k]])
        for k in range(1, len(rows) + 1)
    ]


def negative_definite_by_sylvester(rows: Sequence[Sequence[Any]]) -> bool:
    """Sylvester on -M with dense Gaussian minors."""
    return all(d > 0 for d in leading_principal_minors([[-x for x in row] for row in rows]))


def intersection_rows(g: WeightedDualGraph) -> list[list[int]]:
    """Dense M: M[i][i] = -w(i), M[i][j] = 1 iff i--j is an edge."""
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -g.weights[i]
    for i, j in g.edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def enumerate_anti_nef(g: WeightedDualGraph, max_coeff: int = 12) -> list[tuple[int, ...]]:
    """All anti-nef cycles with every coefficient in [1, max_coeff].

    Depth-first assignment in vertex order.  When vertex k is assigned
    the value c, every row that k touches and whose own vertex is already
    assigned is bounded from below by counting each still-unassigned
    neighbor as 1, the smallest value it can take.  A row only grows as
    its neighbors grow, so a positive bound rules out every completion;
    once all its neighbors are assigned the bound is the row's exact
    value, so the enumerated set is exactly the anti-nef cycles in the
    box.  Each bound is linear in c: row k itself, (-w_k) c + rest <= 0,
    gives c >= rest / w_k, and a neighbor row r < k gives c <= w_r z_r -
    rest.  So the admissible values of c form one interval.
    """
    n = g.n
    rows = intersection_rows(g)
    nbrs = [list(g.adj[i]) for i in range(n)]
    # rows whose bound involves vertex k and whose own vertex is assigned by then
    touched: list[list[int]] = [
        [r for r in [k] + nbrs[k] if r <= k] for k in range(n)
    ]

    found: list[tuple[int, ...]] = []
    z = [0] * n

    def rec(k: int) -> None:
        lo, hi = 1, max_coeff
        for r in touched[k]:
            rest = sum(z[u] if u < k else 1 for u in nbrs[r] if u != k)
            if r == k:
                lo = max(lo, -(rest // rows[k][k]))  # ceil(rest / w_k)
            else:
                hi = min(hi, -rows[r][r] * z[r] - rest)
        for c in range(lo, hi + 1):
            z[k] = c
            if k == n - 1:
                found.append(tuple(z))
            else:
                rec(k + 1)
        z[k] = 0

    rec(0)
    return found


def minimal_anti_nef_by_enumeration(
    g: WeightedDualGraph, max_coeff: int = 12
) -> tuple[int, ...]:
    """Componentwise minimum over the enumerated anti-nef cycles.

    Asserts that the minimum vector is itself anti-nef (i.e. the set has
    a least element in this box).
    """
    cycles = enumerate_anti_nef(g, max_coeff)
    assert cycles, f"no anti-nef cycle with coefficients <= {max_coeff}"
    low = tuple(min(c[k] for c in cycles) for k in range(g.n))
    assert low in set(cycles), "anti-nef set has no least element in the box"
    return low


def anti_nef_naive(g: WeightedDualGraph, z: tuple[int, ...]) -> bool:
    rows = intersection_rows(g)
    return all(
        sum(a * b for a, b in zip(row, z)) <= 0 for row in rows
    )


def artin_genus(g: WeightedDualGraph, z: Sequence[int]) -> int:
    """Arithmetic genus p_a(Z) = 1 + (Z.Z + K.Z) / 2 over the dense matrix.

    K.E_i = w(i) - 2 by adjunction on a rational curve.  A rational
    singularity is one whose fundamental cycle has genus 0 (Artin 1966).
    """
    rows = intersection_rows(g)
    zz = sum(z[i] * a * z[j] for i, row in enumerate(rows) for j, a in enumerate(row))
    zk = sum(c * (w - 2) for c, w in zip(z, g.weights))
    genus = 1 + Q(zz + zk, 2)
    assert genus.denominator == 1, "Z.Z + K.Z must be even"
    return int(genus)


def order_cycle_witness(
    columns: Sequence[Sequence[int]], i: int, j: int
) -> tuple[int, ...] | None:
    """The first column with coefficient at i strictly below j, if any.

    The ray columns generate the anti-nef cone, so an anti-nef cycle with
    z[i] < z[j] exists iff one of them separates i and j; this scans them
    all, where the package reads column j alone.
    """
    for column in columns:
        if column[i] < column[j]:
            return tuple(column)
    return None


def exhaustive_contraction_orders(weight: dict[str, int], adj: dict[str, set[str]]) -> bool:
    """True iff some blow-down order empties the graph (full backtracking)."""
    if not weight:
        return True
    eligible = []
    for vid, w in weight.items():
        if w != 1 or len(adj[vid]) > 2:
            continue
        if len(adj[vid]) == 2:
            a, b = adj[vid]
            if b in adj[a]:
                continue
        eligible.append(vid)
    for vid in eligible:
        w2 = dict(weight)
        a2 = {k: set(v) for k, v in adj.items()}
        nbrs = sorted(a2[vid])
        for u in nbrs:
            w2[u] -= 1
            a2[u].discard(vid)
        if len(nbrs) == 2:
            a2[nbrs[0]].add(nbrs[1])
            a2[nbrs[1]].add(nbrs[0])
        del w2[vid], a2[vid]
        if exhaustive_contraction_orders(w2, a2):
            return True
    return False


def contract_by_rescan(g: WeightedDualGraph) -> tuple[tuple, bool]:
    """(steps, empty) of the greedy leaf blow-down, each step a (vertex id,
    neighbour ids) pair, by scanning the vertices left from the smallest
    index after every blow-down for the first weight-1 vertex with at most
    one neighbour."""
    # dicts keep insertion order across deletions, so scanning `weight`
    # visits the vertices left by index and the first eligible is smallest
    weight = dict(enumerate(g.weights))
    adj = [set(a) for a in g.adj]
    steps = []
    while weight:
        for v in weight:
            if weight[v] == 1 and len(adj[v]) <= 1:
                break
        else:
            return tuple(steps), False
        nbrs = sorted(adj[v])
        for u in nbrs:
            weight[u] -= 1
            adj[u].discard(v)
        del weight[v]
        steps.append((g.ids[v], tuple(g.ids[u] for u in nbrs)))
    return tuple(steps), True


def attached_ids_by_taken_set(g: WeightedDualGraph, z1: int) -> tuple[str, ...]:
    """The supergraph ids of the leaf embedding from z1: g's ids, then for
    each vertex v in index order its weight minus valence attached vertices
    (one fewer at z1), the k-th named "{v}+{k}" unless g or an earlier
    attached vertex has that id, in which case the next free suffix."""
    ids = list(g.ids)
    taken = set(g.ids)
    for v, vid in enumerate(g.ids):
        w, val = g.weights[v], len(g.adj[v])
        count = max(w - val - 1, 0) if v == z1 else w - val
        suffix = 1
        for _ in range(count):
            while f"{vid}+{suffix}" in taken:
                suffix += 1
            aux_id = f"{vid}+{suffix}"
            taken.add(aux_id)
            suffix += 1
            ids.append(aux_id)
    return tuple(ids)


def _tree_path(adj: Sequence[Sequence[int]], i: int, j: int) -> list[int]:
    """The tree path from i to j, by breadth-first parents from i."""
    parent = {i: i}
    queue = [i]
    for v in queue:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    out = [j]
    while out[-1] != i:
        out.append(parent[out[-1]])
    return out[::-1]


@lru_cache(maxsize=None)
def _walk_pieces(
    adj: tuple[tuple[int, ...], ...], weights: tuple[int, ...], z1: int
) -> tuple[tuple[int, ...], ...]:
    """The pieces from z1 without their attached vertices: the path from
    z1 to each vertex, once per weight-1 vertex attached to it."""
    pieces = []
    for v, w in enumerate(weights):
        count = max(w - len(adj[v]) - 1, 0) if v == z1 else w - len(adj[v])
        pieces += [tuple(_tree_path(adj, z1, v))] * count
    return tuple(pieces)


def decompose_by_walk(g: WeightedDualGraph, x: str, y: str) -> tuple:
    """(bamboo, positions, designated, m) of the bamboo decomposition
    through x and y, by walking: the x-y tree path, prolonged beyond each
    end by smallest-index neighbours to a leaf, and a scan of the pieces
    from z_1 for the first with y at y's bamboo position."""
    core = _tree_path(g.adj, g.ids.index(x), g.ids.index(y))
    head: list[int] = []
    tail: list[int] = []
    for walk, prev, v in ((head, core[1], core[0]), (tail, core[-2], core[-1])):
        while len(g.adj[v]) > 1:
            prev, v = v, min(u for u in g.adj[v] if u != prev)
            walk.append(v)
    bamboo = head[::-1] + core + tail
    py = len(head) + len(core)
    pieces = _walk_pieces(g.adj, g.weights, bamboo[0])
    designated = next(k for k, p in enumerate(pieces) if p[py - 1 : py] == (core[-1],))
    return tuple(g.ids[v] for v in bamboo), (len(head) + 1, py), designated, len(bamboo)


def graph_state(g: WeightedDualGraph) -> tuple[dict[str, int], dict[str, set[str]]]:
    weight = dict(zip(g.ids, g.weights))
    adj: dict[str, set[str]] = {vid: set() for vid in g.ids}
    for i, j in g.edges:
        adj[g.ids[i]].add(g.ids[j])
        adj[g.ids[j]].add(g.ids[i])
    return weight, adj


# ---------------------------------------------------------------------------
# a DOT double-quoted string: only \" and \\ are escapes here
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_ids(line: str) -> list[str]:
    """Unescaped quoted strings of one DOT line; no stray quote may remain."""
    assert '"' not in DOT_STRING.sub("", line), line
    return [re.sub(r"\\(.)", r"\1", m) for m in DOT_STRING.findall(line)]


# ---------------------------------------------------------------------------
# A_n arcs with truncated Fraction series: the sampler, evaluator and
# separation check built from full products and one series division,
# independent of the package's integer powers.

# the sampler's coefficient pools, as literals; the draw order matters
REF_NONZERO_POOL = (Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(-3))
REF_POOL = REF_NONZERO_POOL + (Q(0), Q(0), Q(0))


def ref_series_mul(a: Sequence[Q], b: Sequence[Q], order: int) -> tuple[Q, ...]:
    out = [Q(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return tuple(out)


def ref_series_pow(a: Sequence[Q], k: int, order: int) -> tuple[Q, ...]:
    """a^k by k full truncated products."""
    out = tuple([Q(1)] + [Q(0)] * order)
    for _ in range(k):
        out = ref_series_mul(out, a, order)
    return out


def ref_series_inverse_unit(a: Sequence[Q], order: int) -> tuple[Q, ...]:
    """Inverse of a series with nonzero constant term, mod t^(order+1)."""
    inv = [Q(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for k in range(1, order + 1):
        acc = Q(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            acc += a[i] * inv[k - i]
        inv[k] = -acc / a[0]
    return tuple(inv)


def ref_sample_arc(n: int, i: int, trunc: int, seed: Any) -> tuple[tuple[Q, ...], ...]:
    """(x, y, z) of the seeded arc of N_i on z^(n+1) = x y, through t^trunc:
    x = t^i a^(n+1) and z = t a b for the same seeded units a and b as the
    package, and y = z^(n+1) / x by series division."""
    rng = random.Random(repr(("nasharcs-arc", n, i, trunc, seed)))
    a = [rng.choice(REF_NONZERO_POOL)] + [rng.choice(REF_POOL) for _ in range(trunc)]
    b = [rng.choice(REF_NONZERO_POOL)] + [rng.choice(REF_POOL) for _ in range(trunc)]
    unit = ref_series_pow(a, n + 1, trunc)  # x / t^i, through t^trunc
    x = ((Q(0),) * i + unit)[: trunc + 1]
    z = (Q(0),) + ref_series_mul(a, b, trunc - 1)
    # z^(n+1) through t^(trunc+i) reads z only through t^(trunc+i-n) <= t^trunc
    zp = ref_series_pow(z, n + 1, trunc + i)
    y = ref_series_mul(zp[i:], ref_series_inverse_unit(unit, trunc), trunc)
    return x, y, z


def ref_evaluate(
    coords: Sequence[Sequence[Q]], trunc: int, f: Mapping[tuple[int, int, int], Any]
) -> tuple[Q, ...]:
    """f(x(t), y(t), z(t)) mod t^(trunc+1) for coords = (x, y, z)."""
    out = [Q(0)] * (trunc + 1)
    for (ex, ey, ez), coeff in f.items():
        term = tuple([Q(coeff)] + [Q(0)] * trunc)
        for series, e in zip(coords, (ex, ey, ez)):
            if e:
                term = ref_series_mul(term, ref_series_pow(series, e, trunc), trunc)
        for k, c in enumerate(term):
            out[k] += c
    return tuple(out)


def ref_separation_failures(
    n: int, i: int, j: int, samples: int, trunc: int, seed: Any
) -> list[dict[str, Any]]:
    """Counterexamples to x[i] != 0 on N_i and x[i] == 0 on N_j, from full arcs."""
    bad = []
    for s in range(samples):
        x_i = ref_sample_arc(n, i, trunc, (seed, "i", s))[0]
        x_j = ref_sample_arc(n, j, trunc, (seed, "j", s))[0]
        if x_i[i] == 0:
            bad.append({"family": i, "sample": s, "reason": "coefficient t^i of x is zero"})
        if x_j[i] != 0:
            bad.append({"family": j, "sample": s, "reason": "coefficient t^i of x is nonzero"})
    return bad
