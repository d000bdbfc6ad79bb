"""Arc-level ground truth for the weight-2 bamboo singularities z^(n+1) = x y.

Samples truncated power-series arcs in each family N_i, computes contact
orders of polynomials along them, and checks the coefficient separation
that keeps distinct families out of each other's closures.  Everything
is exact: the series are integer lists over a common denominator, turned
into `Fraction`s only in the returned values; randomness is fully seeded.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from typing import Any, Mapping, Sequence

from .errors import (
    BadFamilyIndex,
    BadParameter,
    SameVertex,
    TruncationTooSmall,
    ZeroPolynomial,
)

Series = tuple[Q, ...]  # coefficient of t^k at index k

# monomial exponents (x, y, z) -> coefficient
Poly = Mapping[tuple[int, int, int], Q | int]

POLY_X: Poly = {(1, 0, 0): 1}
POLY_Y: Poly = {(0, 1, 0): 1}
POLY_Z: Poly = {(0, 0, 1): 1}


def defining_polynomial(n: int) -> Poly:
    """z^(n+1) - x y."""
    return {(0, 0, n + 1): 1, (1, 1, 0): -1}


# small rationals for generic coefficients; leading terms draw from the
# nonzero subset so no leading-term cancellation can occur
_NONZERO_POOL = (Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(1, 2), Q(-1, 2), Q(2, 3))
_POOL = _NONZERO_POOL + (Q(0), Q(0), Q(0))


# Every pool value times _SCALE is an integer, so arcs are drawn as
# integer series over the common denominator _SCALE.  The scaled pools
# keep the order and length of the originals, so the draws are the same.
_SCALE = 6


def _scaled(pool: Sequence[Q]) -> tuple[int, ...]:
    scaled = tuple(_SCALE * q for q in pool)
    if any(v.denominator != 1 for v in scaled):
        raise AssertionError(f"a pool value times {_SCALE} is not an integer")
    return tuple(v.numerator for v in scaled)


_NONZERO_DRAWS = _scaled(_NONZERO_POOL)
_DRAWS = _scaled(_POOL)


def _int_mul(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Product of two integer series mod t^(order+1)."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i], i):
                if bj:
                    out[j] += ai * bj
    return out


def _int_pow(a: Sequence[int], k: int, order: int) -> list[int]:
    """a^k mod t^(order+1) by square-and-multiply."""
    out = [1] + [0] * order
    base = list(a[: order + 1])
    while k > 0:
        if k & 1:
            out = _int_mul(out, base, order)
        k >>= 1
        if k:
            base = _int_mul(base, base, order)
    return out


def _unit_pow(v: Sequence[int], m: int, order: int) -> list[int]:
    """v^m mod t^(order+1) for an integer series with v[0] != 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    k v0 p_k = sum_{j=1..k} ((m+1) j - k) v_j p_(k-j).  Every p_k is an
    integer because v is, so each division must leave no remainder.
    """
    v0 = v[0]
    p = [v0**m]
    for k in range(1, order + 1):
        acc = 0
        for j in range(1, min(k, len(v) - 1) + 1):
            if v[j]:
                acc += ((m + 1) * j - k) * v[j] * p[k - j]
        q, r = divmod(acc, k * v0)
        if r:
            raise ArithmeticError(f"inexact division at t^{k} of a series power")
        p.append(q)
    return p


def series_order(a: Sequence[Q]) -> int | None:
    """Least exponent with a nonzero coefficient; None if identically zero."""
    for k, c in enumerate(a):
        if c != 0:
            return k
    return None


@dataclass(frozen=True)
class TruncatedArc:
    """Arc of the family N_i on z^(n+1) = x y, truncated at order `trunc`."""

    n: int
    family: int
    trunc: int
    x: Series
    y: Series
    z: Series


def _draw_x(n: int, i: int, trunc: int, seed: Any) -> tuple[random.Random, list[int]]:
    """Seed the generator of an arc of N_i and draw _SCALE * x, with ord(x) = i.

    x is drawn first; `sample_arc` goes on to draw z from the returned
    generator.  x runs to t^(trunc+i), a little past the target order,
    so the division giving y stays exact.
    """
    if not 1 <= i <= n:
        raise BadFamilyIndex(f"family index {i} not in 1..{n}")
    if trunc < n + 2:
        raise TruncationTooSmall(f"truncation {trunc} must be at least {n + 2}")
    rng = random.Random(repr(("nasharcs-arc", n, i, trunc, seed)))
    work = trunc + i
    x = [0] * (work + 1)
    x[i] = rng.choice(_NONZERO_DRAWS)
    for k in range(i + 1, work + 1):
        x[k] = rng.choice(_DRAWS)
    return rng, x


def sample_arc(n: int, i: int, trunc: int, seed: Any) -> TruncatedArc:
    """Draw a generic arc of N_i: ord(x) = i, ord(z) = 1, y = z^(n+1) / x."""
    rng, x = _draw_x(n, i, trunc, seed)
    work = trunc + i
    z = [0] * (work + 1)
    z[1] = rng.choice(_NONZERO_DRAWS)
    for k in range(2, work + 1):
        z[k] = rng.choice(_DRAWS)

    # With S = _SCALE, S x = t^i u and S z = t v, so
    # y = z^(n+1) / x = w / (S^n u) with w = t^(n+1-i) v^(n+1).
    lead = n + 1 - i  # >= 1
    w = [0] * lead + _unit_pow(z[1:], n + 1, trunc - lead)
    u = x[i:]
    # long division w / u in integers: q[k] is u0^(k+1) times the
    # quotient's coefficient of t^k
    u0 = u[0]
    u0_pow = [1]
    for _ in range(trunc + 1):
        u0_pow.append(u0_pow[-1] * u0)
    q: list[int] = []
    for k in range(trunc + 1):
        acc = w[k] * u0_pow[k]
        for j in range(1, k + 1):
            if u[j]:
                acc -= u[j] * q[k - j] * u0_pow[j - 1]
        q.append(acc)
    scale_n = _SCALE**n

    return TruncatedArc(
        n=n,
        family=i,
        trunc=trunc,
        x=tuple(Q(c, _SCALE) for c in x[: trunc + 1]),
        y=tuple(Q(c, u0_pow[k + 1] * scale_n) for k, c in enumerate(q)),
        z=tuple(Q(c, _SCALE) for c in z[: trunc + 1]),
    )


def _clear_denominators(series: Sequence[Q | int], order: int) -> tuple[list[int], int]:
    """(numerators, d) with series = numerators / d mod t^(order+1), d the lcm."""
    coeffs = [Q(c) for c in series[: order + 1]]
    d = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (d // c.denominator) for c in coeffs]
    return nums + [0] * (order + 1 - len(nums)), d


def evaluate(arc: TruncatedArc, f: Poly) -> Series:
    """f(x(t), y(t), z(t)) mod t^(trunc+1).

    Every monomial key of f must be a tuple of three non-negative ints
    (the exponents of x, y and z); any other key raises `BadParameter`.
    """
    order = arc.trunc
    coords = (arc.x, arc.y, arc.z)
    cleared: dict[int, tuple[list[int], int]] = {}
    terms = []
    for key, coeff in f.items():
        if not (
            isinstance(key, tuple)
            and len(key) == 3
            and all(isinstance(e, int) and e >= 0 for e in key)
        ):
            raise BadParameter(f"monomial key {key!r} is not three non-negative ints")
        c = Q(coeff)
        num = [c.numerator] + [0] * order
        den = c.denominator
        for axis, e in enumerate(key):
            if e > 0:
                if axis not in cleared:
                    cleared[axis] = _clear_denominators(coords[axis], order)
                nums, d = cleared[axis]
                num = _int_mul(num, _int_pow(nums, e, order), order)
                den *= d**e
        terms.append((num, den))
    common = lcm(*(den for _, den in terms))
    out = [0] * (order + 1)
    for num, den in terms:
        factor = common // den
        for k, c in enumerate(num):
            out[k] += c * factor
    return tuple(Q(c, common) for c in out)


def contact_order(arc: TruncatedArc, f: Poly) -> int | None:
    """ord_t of f along the arc; None means unbounded at this truncation.

    Unbounded is a legitimate value (the defining equation evaluates to
    an exact zero), so callers decide whether to raise the truncation.
    """
    if not f or all(Q(c) == 0 for c in f.values()):
        raise ZeroPolynomial("contact order of the zero polynomial is undefined")
    return series_order(evaluate(arc, f))


def separation_check(
    n: int, i: int, j: int, samples: int, trunc: int, seed: Any
) -> dict[str, Any]:
    """Check the open condition separating N_i from the closure of N_j.

    Every arc of N_i must have a nonzero coefficient of t^i in x, while
    every arc of N_j (j > i) has that coefficient equal to zero.  The
    report lists each failing sample under "counterexamples"; "passed"
    is true when there is none.
    """
    if i == j:
        raise SameVertex("separation needs two distinct families")
    if not 1 <= i < j <= n:
        raise BadFamilyIndex(f"need 1 <= i < j <= n, got i={i}, j={j}")
    if samples < 1:
        raise BadParameter(f"sample count {samples} must be at least 1")
    bad: list[dict[str, Any]] = []
    for s in range(samples):
        _, x_i = _draw_x(n, i, trunc, (seed, "i", s))
        _, x_j = _draw_x(n, j, trunc, (seed, "j", s))
        if x_i[i] == 0:
            bad.append({"family": i, "sample": s, "reason": "coefficient t^i of x is zero"})
        if x_j[i] != 0:
            bad.append({"family": j, "sample": s, "reason": "coefficient t^i of x is nonzero"})
    return {"n": n, "i": i, "j": j, "samples": samples, "passed": not bad,
            "counterexamples": bad}


def defining_residual(arc: TruncatedArc) -> Series:
    """z^(n+1) - x y along the arc; must vanish through the truncation."""
    return evaluate(arc, defining_polynomial(arc.n))
