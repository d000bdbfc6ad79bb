from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nasharcs
from nasharcs import arcs
from nasharcs.arcs import (
    TruncatedArc,
    contact_order,
    defining_residual,
    sample_arc,
    separation_check,
)
from nasharcs.errors import BadFamilyIndex, SameVertex, TruncationTooSmall


def simple_arc() -> TruncatedArc:
    # (x, y, z) = (t, t^2, t) on z^3 = x y, truncated at order 12
    coeffs = lambda *exps: tuple(int(k in exps) for k in range(13))
    return TruncatedArc(n=2, family=1, trunc=12, x=coeffs(1), y=coeffs(2), z=coeffs(1))


def test_contact_order_simplest_member():
    arc = simple_arc()
    assert contact_order(arc, "x") == 1
    assert contact_order(arc, "y") == 2
    assert contact_order(arc, "z") == 1
    # defining equation z^3 - x y vanishes identically
    assert defining_residual(arc) == (0,) * 13


def test_arcs_import_loads_no_graph_layer():
    code = (
        "import sys, nasharcs.arcs; "
        "print(' '.join(sys.modules))"
    )
    src = str(Path(nasharcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nasharcs.arcs" in out
    assert "nasharcs.classify" not in out
    assert "fractions" not in out and "decimal" not in out


def test_sample_arc_bad_inputs():
    with pytest.raises(BadFamilyIndex):
        sample_arc(2, 3, 20, 0)
    with pytest.raises(BadFamilyIndex):
        sample_arc(2, 0, 20, 0)
    with pytest.raises(TruncationTooSmall):
        sample_arc(3, 1, 4, 0)


def test_sample_arc_orders():
    arc = sample_arc(3, 2, 20, seed=42)
    assert contact_order(arc, "x") == 2
    assert contact_order(arc, "y") == 2  # n + 1 - i = 2
    assert contact_order(arc, "z") == 1


def test_sample_arc_defining_residual_vanishes():
    for n in range(1, 5):
        for i in range(1, n + 1):
            arc = sample_arc(n, i, 4 * (n + 1), seed=7)
            assert not any(defining_residual(arc))


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
                assert contact_order(arc, "x") == i
                assert contact_order(arc, "y") == n + 1 - i
                assert contact_order(arc, "z") == 1


def test_separation_check_passes():
    rep = separation_check(3, 1, 3, samples=100, trunc=16, seed=5)
    assert rep["passed"] and not rep["counterexamples"]
    rep = separation_check(2, 1, 2, samples=100, trunc=12, seed=5)
    assert rep["passed"]


def test_separation_check_draws_no_arc(monkeypatch):
    # the verdict follows from how `sample_arc` draws x, so no generator is seeded
    def refuse(*args):
        raise AssertionError("separation_check drew an arc")

    monkeypatch.setattr(arcs.random, "Random", refuse)
    rep = separation_check(12, 3, 9, samples=100_000, trunc=52, seed=11)
    assert rep == {"n": 12, "i": 3, "j": 9, "samples": 100_000, "passed": True,
                   "counterexamples": []}


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
