"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
from __future__ import annotations

import itertools
import time

from nasharcs.arcs import contact_order, sample_arc, separation_check
from nasharcs.classify import certify_minimal, contracts_to_empty, is_minimal, serialize_certificate
from nasharcs.cycles import fundamental_cycle, is_anti_nef, is_rational
from nasharcs.generators import an_graph
from nasharcs.graph import WeightedDualGraph
from nasharcs.order import Verdict, relation_matrix

from builders import e6_graph
from oracles import minimal_anti_nef_by_enumeration


def _report(num: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} [{title}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({title}) failed"


def test_criterion_1_bamboo_completeness():
    """All ordered pairs of every weight-2 bamboo up to 30 vertices are
    incomparable, with verifiable witnesses, in under a second per size."""
    ok = True
    for n in range(2, 31):
        start = time.perf_counter()
        g = an_graph(n)
        up = tuple(range(1, n + 1))
        down = tuple(range(n, 0, -1))
        ok = ok and is_anti_nef(g, up) and is_anti_nef(g, down)
        for i in range(n):
            for j in range(i + 1, n):
                rel = relation_matrix(g).get(i, j)
                ok = ok and rel.verdict is Verdict.INCOMPARABLE
                ok = ok and is_anti_nef(g, rel.witness_ij)
                ok = ok and rel.witness_ij[i] < rel.witness_ij[j]
                ok = ok and is_anti_nef(g, rel.witness_ji)
                ok = ok and rel.witness_ji[j] < rel.witness_ji[i]
                # the two coordinate-function order vectors also witness the pair
                ok = ok and up[i] < up[j] and down[j] < down[i]
        ok = ok and (time.perf_counter() - start) < 1.0
    _report(1, "bamboo completeness n=2..30", ok)


def test_criterion_2_never_equal(negdef_corpus):
    """No pair on 200 random negative-definite trees ever compares equal."""
    assert len(negdef_corpus) >= 200
    ok = True
    for g in negdef_corpus:
        # relation_matrix raises InconsistentRelation on a pair with no
        # witness either way; reaching the end of the loop is the assertion
        relation_matrix(g)
    _report(2, "never-equal over 200 random trees", ok)


def test_criterion_3_fundamental_cycle_vs_brute_force(small_negdef_corpus):
    """Increment algorithm agrees with exhaustive minimal anti-nef search."""
    assert len(small_negdef_corpus) >= 100
    start = time.perf_counter()
    ok = all(
        fundamental_cycle(g) == minimal_anti_nef_by_enumeration(g, max_coeff=12)
        for g in small_negdef_corpus
    )
    ok = ok and (time.perf_counter() - start) < 60.0
    _report(3, "fundamental cycle vs brute force", ok)


def test_criterion_4_minimality_equivalence(negdef_corpus):
    """On rational graphs: weight >= valence everywhere iff the
    fundamental cycle is reduced."""
    ok = True
    rational_seen = 0
    for g in negdef_corpus:
        if not is_rational(g):
            continue
        rational_seen += 1
        weight_condition = all(
            g.weights[i] >= g.valence(i) for i in range(g.n)
        )
        reduced = fundamental_cycle(g) == (1,) * g.n
        ok = ok and (weight_condition == reduced)
    ok = ok and rational_seen > 0
    _report(4, "minimality iff reduced fundamental cycle", ok)


# unambiguous clauses of the published 6-vertex example, as ordered pairs
# of 1-based labels whose non-inclusion must be proven; the clause with an
# unbound index is flagged below and deliberately not tested
E6_CLAUSES = (
    [(1, i) for i in range(1, 7) if i != 1]
    + [(5, i) for i in range(1, 7) if i != 5]
    + [(6, i) for i in range(1, 7) if i != 6]
    + [(2, 4), (2, 3)]
)
E6_AMBIGUOUS_CLAUSE = "closure(N_i) not in closure(N_j) for j = 2, 3 (unbound i)"


def test_criterion_5_e6_relabeling():
    """Some relabeling of the canonical 6-vertex graph satisfies every
    unambiguous clause of the published verdict table."""
    start = time.perf_counter()
    rm = relation_matrix(e6_graph())
    proven = {p for p, rel in rm.pairs() if rel.witness_ij is not None}
    match = None
    for perm in itertools.permutations(range(6)):
        # perm maps published label k (1-based) to vertex index perm[k-1]
        if all((perm[a - 1], perm[b - 1]) in proven for a, b in E6_CLAUSES):
            match = perm
            break
    ok = match is not None and (time.perf_counter() - start) < 1.0
    print(f"  flagged, untested: {E6_AMBIGUOUS_CLAUSE}")
    print(f"  matching relabeling: {match}")
    _report(5, "E6 verdicts up to relabeling", ok)


def test_criterion_6_minimal_certification(minimal_corpus):
    """Zero open pairs on 50 random minimal graphs, bamboos up to A_10,
    and the (3,2,2) bamboo; every supergraph contracts to Empty."""
    assert len(minimal_corpus) >= 50
    start = time.perf_counter()
    graphs = list(minimal_corpus)
    graphs += [an_graph(n) for n in range(2, 11)]
    graphs.append(
        WeightedDualGraph([("v1", 3), ("v2", 2), ("v3", 2)], [("v1", "v2"), ("v2", "v3")])
    )
    ok = True
    for g in graphs:
        ok = ok and is_minimal(g)
        cert = certify_minimal(g)
        ok = ok and serialize_certificate(cert)["open_pairs"] == []
        ok = ok and len(list(cert.pairs())) == g.n * (g.n - 1)
        ok = ok and all(
            cert.evidence(a, b)["supergraph_contracts"] for a, b in cert.pairs()
        )
    ok = ok and (time.perf_counter() - start) < 120.0
    _report(6, "minimal certification, zero open pairs", ok)


def test_criterion_7_arc_cycle_agreement():
    """Contact orders of the coordinate functions match the divisorial
    orders (i, n+1-i, 1) on 100 seeded samples per family; the
    coefficient separation holds for every i < j."""
    ok = True
    for n in range(1, 7):
        trunc = 4 * (n + 1)
        for i in range(1, n + 1):
            for s in range(100):
                arc = sample_arc(n, i, trunc, seed=("acc7", s))
                ok = ok and contact_order(arc, "x") == i
                ok = ok and contact_order(arc, "y") == n + 1 - i
                ok = ok and contact_order(arc, "z") == 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rep = separation_check(n, i, j, samples=100, trunc=trunc, seed="acc7")
                ok = ok and rep["passed"]
    _report(7, "arc/cycle order agreement", ok)


def test_criterion_8_sandwich_construction():
    """Weight-2 bamboo plus one weight-1 end vertex contracts to Empty
    for every length up to 20."""
    ok = True
    for n in range(1, 21):
        vertices = [("s", 1)] + [(f"E{k}", 2) for k in range(1, n + 1)]
        edges = [("s", "E1")] + [(f"E{k}", f"E{k + 1}") for k in range(1, n)]
        g = WeightedDualGraph(vertices, edges, auxiliary=True)
        ok = ok and contracts_to_empty(g).empty
    _report(8, "bamboo sandwich embedding contracts", ok)
