"""Independent checks of CLI output against the benchmark's own answers.

Nothing here imports nasharcs.  Each check returns a list of problems;
an empty list means the job's output is correct.  Intersection products
use the tree directly: (M z)_v = -w(v) z(v) + sum of z over v's neighbours.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any

from corpus import GraphInput, Job


def _products(g: GraphInput, adj: list[list[int]], z) -> list:
    return [-g.weights[v] * z[v] + sum(z[u] for u in adj[v]) for v in range(g.n)]


class _AntiNef:
    """Anti-nef test with a cache: witnesses repeat across many pairs."""

    def __init__(self, g: GraphInput) -> None:
        self.g = g
        self.adj = g.adjacency()
        self.seen: dict[tuple, bool] = {}

    def __call__(self, z: Any) -> bool:
        key = tuple(z) if isinstance(z, list) else None
        if key is None or len(key) != self.g.n:
            return False
        if key not in self.seen:
            self.seen[key] = (
                all(type(c) is int and c >= 0 for c in key)
                and any(key)
                and all(p <= 0 for p in _products(self.g, self.adj, key))
            )
        return self.seen[key]


def _process(exit_code: int, stderr: str) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if stderr.strip():
        problems.append(f"stderr not empty: {stderr.strip().splitlines()[-1][:200]}")
    return problems


def _is_leaf_path(g: GraphInput, adj_sets: list[set[int]], idx: dict, ids: Any) -> bool:
    if not isinstance(ids, list) or len(ids) < 2 or len(set(ids)) != len(ids):
        return False
    if any(v not in idx for v in ids):
        return False
    path = [idx[v] for v in ids]
    if len(adj_sets[path[0]]) != 1 or len(adj_sets[path[-1]]) != 1:
        return False
    return all(b in adj_sets[a] for a, b in zip(path, path[1:]))


def check_certify(g: GraphInput, exit_code: int, stderr: str, doc: Any) -> list[str]:
    problems = _process(exit_code, stderr)
    if not isinstance(doc, dict):
        return problems + ["output is not a JSON object"]
    n = g.n
    idx = {v: k for k, v in enumerate(g.ids)}
    adj_sets = [set(a) for a in g.adjacency()]
    anti_nef = _AntiNef(g)
    if doc.get("open_pairs") != []:
        problems.append("open_pairs is not empty")
    if doc.get("fundamental_cycle") != [1] * n:
        problems.append("fundamental cycle of a minimal graph is not all ones")
    pairs = doc.get("pairs")
    if not isinstance(pairs, list) or len(pairs) != n * (n - 1):
        problems.append(f"expected {n * (n - 1)} pair entries")
        pairs = pairs if isinstance(pairs, list) else []
    seen = set()
    for e in pairs:
        try:
            a, b = e["alpha"], e["beta"]
            ev = e["evidence"]
            ia, ib = idx[a], idx[b]
            seen.add((a, b))
            bad = _certify_entry(e, ev, a, b, ia, ib, g, idx, adj_sets, anti_nef)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad = f"malformed entry: {exc!r}"
        if bad:
            problems.append(bad)
            if len(problems) > 20:
                break
    if len(seen) != n * (n - 1):
        problems.append("ordered pairs missing or repeated")
    return problems


def _certify_entry(e, ev, a, b, ia, ib, g, idx, adj_sets, anti_nef) -> str | None:
    where = f"pair ({a}, {b})"
    if ia == ib:
        return f"{where}: alpha equals beta"
    if e["status"] != "Proven" or "Propagation" not in e["rules"]:
        return f"{where}: not proven by propagation"
    bamboo = ev["bamboo"]
    if not _is_leaf_path(g, adj_sets, idx, bamboo):
        return f"{where}: bamboo is not a leaf-to-leaf path"
    m = len(bamboo)
    if ev["quotient"] != f"A_{m}":
        return f"{where}: quotient {ev['quotient']} is not A_{m}"
    lo, hi = sorted((ia, ib))
    if ev["positions"] != [bamboo.index(g.ids[lo]) + 1, bamboo.index(g.ids[hi]) + 1]:
        return f"{where}: positions do not match the bamboo"
    if ev["supergraph_contracts"] is not True:
        return f"{where}: supergraph does not contract"
    up, down = list(range(1, m + 1)), list(range(m, 0, -1))
    if sorted([ev["witness_ij"], ev["witness_ji"]]) != sorted([up, down]):
        return f"{where}: A_{m} witnesses are not the two coordinate orders"
    if "OrderCriterion" in e["rules"] or "order_witness" in ev:
        z = ev.get("order_witness")
        if not (anti_nef(z) and z[ia] < z[ib]):
            return f"{where}: order witness is not anti-nef with z[alpha] < z[beta]"
    return None


def _genus_zero(g: GraphInput, adj: list[list[int]], z: list[int]) -> bool:
    """Artin: p_a(Z) = 1 + (Z.Z + Z.K)/2 = 0, with K.E_v = w(v) - 2."""
    mz = _products(g, adj, z)
    zz = sum(c * p for c, p in zip(z, mz))
    zk = sum(c * (w - 2) for c, w in zip(z, g.weights))
    return 2 + zz + zk == 0


def check_analyze(g: GraphInput, exit_code: int, stderr: str, doc: Any) -> list[str]:
    problems = _process(exit_code, stderr)
    if not isinstance(doc, dict):
        return problems + ["output is not a JSON object"]
    if doc.get("negative_definite") is not g.negative_definite:
        return problems + [
            f"negative_definite is {doc.get('negative_definite')!r}, "
            f"pivots say {g.negative_definite}"
        ]
    if doc.get("vertices") != g.n:
        problems.append("vertex count differs")
    if not g.negative_definite:
        if "relation" in doc or "ray_basis" in doc:
            problems.append("indefinite graph has a relation table or rays")
        return problems
    try:
        problems += _analyze_definite(g, doc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _analyze_definite(g: GraphInput, doc: dict) -> list[str]:
    problems = []
    n = g.n
    adj = g.adjacency()
    anti_nef = _AntiNef(g)
    if doc["minimal"] is not False:
        problems.append("a graph with w < valence is reported minimal")
    z = doc["fundamental_cycle"]
    if not (anti_nef(z) and min(z) >= 1):
        problems.append("fundamental cycle is not anti-nef and >= 1")
    elif doc["rational"] is not _genus_zero(g, adj, z):
        problems.append("rational flag disagrees with the genus of the fundamental cycle")
    rays = doc["ray_basis"]
    if len(rays) != n:
        problems.append(f"{len(rays)} rays, expected {n}")
    for k, col in enumerate(rays):
        c = [Fraction(s) for s in col]
        if len(c) != n or [-p for p in _products(g, adj, c)] != [int(v == k) for v in range(n)]:
            problems.append(f"ray {k}: (-M) column is not e_{k}")
            break
    rel = doc["relation"]
    idx = {v: k for k, v in enumerate(g.ids)}
    pairs = rel["pairs"]
    if len(pairs) != n * (n - 1) or len({(p["i"], p["j"]) for p in pairs}) != len(pairs):
        problems.append(f"relation table does not have {n * (n - 1)} distinct pairs")
    proven = set()
    for p in pairs:
        i, j = idx[p["i"]], idx[p["j"]]
        wij, wji = p["witness_ij"], p["witness_ji"]
        if i == j:
            problems.append(f"pair ({p['i']}, {p['j']}) relates a vertex to itself")
        ok_ij = wij is None or (anti_nef(wij) and wij[i] < wij[j])
        ok_ji = wji is None or (anti_nef(wji) and wji[j] < wji[i])
        if not (ok_ij and ok_ji):
            problems.append(f"pair ({p['i']}, {p['j']}): bad witness")
        expected = {
            (True, True): "incomparable",
            (True, False): "less",
            (False, True): "greater",
        }.get((wij is not None, wji is not None))
        if p["verdict"] != expected:
            problems.append(f"pair ({p['i']}, {p['j']}): verdict {p['verdict']} "
                            f"does not match its witnesses")
        if wij is not None:
            proven.add((p["i"], p["j"]))
        if len(problems) > 20:
            break
    if {tuple(x) for x in rel["non_inclusions"]} != proven:
        problems.append("non_inclusions differ from the pairs with a witness")
    return problems


def check_arcs(arcs: dict, exit_code: int, stderr: str, doc: Any) -> list[str]:
    problems = _process(exit_code, stderr)
    if not isinstance(doc, dict):
        return problems + ["output is not a JSON object"]
    n, i = arcs["n"], arcs["family"]
    try:
        records = doc["arcs"]
        if [r["sample"] for r in records] != list(range(arcs["samples"])):
            problems.append("arc samples missing or out of order")
        want = {"x": i, "y": n + 1 - i, "z": 1}
        for r in records:
            if r["orders"] != want:
                problems.append(f"sample {r['sample']}: orders {r['orders']} != {want}")
            if r["residual_zero"] is not True:
                problems.append(f"sample {r['sample']}: residual is not zero")
        if doc["orders_match"] is not True:
            problems.append("orders_match is not true")
        if arcs["against"] is None:
            if "separation" in doc:
                problems.append("separation reported without --against")
        else:
            sep = doc["separation"]
            lo, hi = sorted((i, arcs["against"]))
            if (sep["i"], sep["j"], sep["samples"]) != (lo, hi, arcs["samples"]):
                problems.append("separation check ran on other families")
            if sep["passed"] is not True:
                problems.append("separation check failed")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def check_job(job: Job, exit_code: int, stderr: str, doc: Any) -> list[str]:
    if job.command == "certify-minimal":
        return check_certify(job.graph, exit_code, stderr, doc)
    if job.command == "analyze":
        return check_analyze(job.graph, exit_code, stderr, doc)
    return check_arcs(job.arcs, exit_code, stderr, doc)
