from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import nasharcs
from nasharcs.arcs import (
    POLY_X,
    POLY_Y,
    POLY_Z,
    TruncatedArc,
    contact_order,
    defining_polynomial,
    defining_residual,
    evaluate,
    sample_arc,
    separation_check,
    series_order,
)
from nasharcs.errors import (
    BadFamilyIndex,
    BadParameter,
    SameVertex,
    TruncationTooSmall,
    ZeroPolynomial,
)


def simple_arc() -> TruncatedArc:
    # (x, y, z) = (t, t^2, t) on z^3 = x y, truncated at order 12
    zero = Q(0)
    coeffs = lambda *exps: tuple(
        Q(1) if k in exps else zero for k in range(13)
    )
    return TruncatedArc(
        n=2, family=1, trunc=12, x=coeffs(1), y=coeffs(2), z=coeffs(1)
    )


def test_contact_order_simplest_member():
    arc = simple_arc()
    assert contact_order(arc, POLY_X) == 1
    assert contact_order(arc, POLY_Y) == 2
    assert contact_order(arc, POLY_Z) == 1
    # defining equation z^3 - x y vanishes identically: unbounded
    assert contact_order(arc, defining_polynomial(2)) is None


def test_contact_order_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        contact_order(simple_arc(), {})
    with pytest.raises(ZeroPolynomial):
        contact_order(simple_arc(), {(1, 0, 0): 0})


@pytest.mark.parametrize("key", [(-1, 0, 0), (1.5, 0, 0), (1, 0), (0, 0, 1, 0)])
def test_bad_monomial_key_rejected(key):
    with pytest.raises(BadParameter):
        evaluate(simple_arc(), {key: 1})
    with pytest.raises(BadParameter):
        contact_order(simple_arc(), {(1, 0, 0): 1, key: 1})


def test_arcs_import_loads_no_graph_layer():
    code = (
        "import sys, nasharcs.arcs; "
        "print(' '.join(m for m in sys.modules if m.startswith('nasharcs')))"
    )
    src = str(Path(nasharcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nasharcs.arcs" in out
    assert "nasharcs.classify" not in out and "nasharcs.rational" not in out


def test_contact_order_composite_polynomial():
    arc = simple_arc()
    # x^2 + z has order 1; x y has order 3
    assert contact_order(arc, {(2, 0, 0): 1, (0, 0, 1): 1}) == 1
    assert contact_order(arc, {(1, 1, 0): 1}) == 3


def test_sample_arc_bad_inputs():
    with pytest.raises(BadFamilyIndex):
        sample_arc(2, 3, 20, 0)
    with pytest.raises(BadFamilyIndex):
        sample_arc(2, 0, 20, 0)
    with pytest.raises(TruncationTooSmall):
        sample_arc(3, 1, 4, 0)


def test_sample_arc_orders():
    arc = sample_arc(3, 2, 20, seed=42)
    assert series_order(arc.x) == 2
    assert series_order(arc.y) == 2  # n + 1 - i = 2
    assert series_order(arc.z) == 1


def test_sample_arc_defining_residual_vanishes():
    for n in range(1, 5):
        for i in range(1, n + 1):
            arc = sample_arc(n, i, 4 * (n + 1), seed=7)
            assert all(c == 0 for c in defining_residual(arc))


def test_sample_arc_leading_coefficient_identity():
    # c_1^(n+1) = a_i * b_(n+1-i)
    for n in range(1, 6):
        for i in range(1, n + 1):
            arc = sample_arc(n, i, 4 * (n + 1), seed=(n, i))
            assert arc.z[1] ** (n + 1) == arc.x[i] * arc.y[n + 1 - i]


def test_sample_arc_deterministic():
    a = sample_arc(4, 2, 24, seed=123)
    b = sample_arc(4, 2, 24, seed=123)
    c = sample_arc(4, 2, 24, seed=124)
    assert a == b
    assert a != c


def test_contact_orders_match_divisorial_orders():
    # arc-level mirror of the witness cycles (1..n) and (n..1)
    for n in range(1, 6):
        for i in range(1, n + 1):
            for s in range(10):
                arc = sample_arc(n, i, 4 * (n + 1), seed=("orders", s))
                assert contact_order(arc, POLY_X) == i
                assert contact_order(arc, POLY_Y) == n + 1 - i
                assert contact_order(arc, POLY_Z) == 1


def test_separation_check_passes():
    rep = separation_check(3, 1, 3, samples=100, trunc=16, seed=5)
    assert rep["passed"] and not rep["counterexamples"]
    rep = separation_check(2, 1, 2, samples=100, trunc=12, seed=5)
    assert rep["passed"]


def test_separation_check_bad_pairs():
    with pytest.raises(SameVertex):
        separation_check(3, 2, 2, samples=1, trunc=20, seed=0)
    with pytest.raises(BadFamilyIndex):
        separation_check(3, 3, 1, samples=1, trunc=20, seed=0)


def test_separation_report_serialization():
    rep = separation_check(2, 1, 2, samples=5, trunc=12, seed=1)
    doc = json.loads(json.dumps(rep))
    assert doc == rep  # already plain JSON data
    assert doc["passed"] is True
    assert doc["samples"] == 5
