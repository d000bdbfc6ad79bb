"""Arc-level ground truth for the weight-2 bamboo singularities z^(n+1) = x y.

Samples truncated power-series arcs in each family N_i, reads the contact
orders of the coordinates off them, checks that they satisfy the defining
equation, and reports the coefficient separation that keeps distinct
families out of each other's closures, which the sampler builds in.
Everything is exact integer arithmetic: each coordinate is a tuple of
integer numerators over its own denominator; randomness is fully seeded.
"""
from __future__ import annotations

import random
from math import gcd
from typing import Any, NamedTuple, Sequence

from .errors import BadFamilyIndex, SameVertex, TruncationTooSmall

Series = tuple[int, ...]  # numerator of the coefficient of t^k at index k


# Arcs are drawn as integer series over the common denominator _SCALE.
# The draws are _SCALE times the small rationals 1, -1, 2, -2, 3, 1/2,
# -1/2, 2/3 used as generic coefficients, plus three zeros; leading terms
# draw from the nonzero ones so no leading-term cancellation can occur.
_SCALE = 6
_NONZERO_DRAWS = (6, -6, 12, -12, 18, 3, -3, 4)
_DRAWS = _NONZERO_DRAWS + (0, 0, 0)


def _int_mul(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Product of two integer series mod t^(order+1)."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i], i):
                if bj:
                    out[j] += ai * bj
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


def _first_nonzero(a: Sequence[int]) -> int | None:
    """Least exponent with a nonzero coefficient; None if identically zero."""
    return next((k for k, c in enumerate(a) if c), None)


class TruncatedArc(NamedTuple):
    """Arc of the family N_i on z^(n+1) = x y, truncated at order `trunc`.

    x, y and z hold the numerators of the coefficients of t^0..t^trunc;
    with den = (dx, dy, dz), the coefficient of t^k in x is x[k] / dx,
    and likewise for y and z.  y and dy have no common factor.
    """

    n: int
    family: int
    trunc: int
    x: Series
    y: Series
    z: Series
    den: tuple[int, int, int]


def sample_arc(n: int, i: int, trunc: int, seed: Any) -> TruncatedArc:
    """Draw a generic arc of N_i: ord(x) = i, ord(z) = 1, y = z^(n+1) / x.

    x runs to t^(trunc+i), a little past the target order, so the
    division giving y stays exact; z is drawn after it.
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
    # over the one denominator u0^(trunc+1) S^n, the numerator of t^k is
    # q[k] u0^(trunc-k); their common factor is divided out, since most
    # draws share a factor with u0 and the residual multiplies by dy
    y = [c * u0_pow[trunc - k] for k, c in enumerate(q)]
    dy = u0_pow[trunc + 1] * _SCALE**n
    g = gcd(dy, *y)
    return TruncatedArc(
        n=n,
        family=i,
        trunc=trunc,
        x=tuple(x[: trunc + 1]),
        y=tuple(c // g for c in y),
        z=tuple(z[: trunc + 1]),
        den=(_SCALE, dy // g, _SCALE),
    )


def contact_order(arc: TruncatedArc, axis: str) -> int | None:
    """ord_t of the coordinate `axis` ("x", "y" or "z") along the arc;
    None means unbounded at this truncation."""
    return _first_nonzero({"x": arc.x, "y": arc.y, "z": arc.z}[axis])


def separation_check(
    n: int, i: int, j: int, samples: int, trunc: int, seed: Any
) -> dict[str, Any]:
    """The open condition separating N_i from the closure of N_j.

    Every arc of N_i has a nonzero coefficient of t^i in x, while every
    arc of N_j (j > i) has that coefficient equal to zero.  `sample_arc`
    draws x so that both hold: family i's t^i coefficient from the
    nonzero draws, and family j's x zero below t^j.  So the report,
    for any `samples` and `seed`, says "passed" with no
    "counterexamples", and no arc is drawn for it; `samples` is the
    per-family count it echoes.  Families and truncation are checked
    as `sample_arc` checks them.
    """
    if i == j:
        raise SameVertex("separation needs two distinct families")
    if not 1 <= i < j <= n:
        raise BadFamilyIndex(f"need 1 <= i < j <= n, got i={i}, j={j}")
    if trunc < n + 2:
        raise TruncationTooSmall(f"truncation {trunc} must be at least {n + 2}")
    return {"n": n, "i": i, "j": j, "samples": samples, "passed": True,
            "counterexamples": []}


def defining_residual(arc: TruncatedArc) -> Series:
    """z^(n+1) - x y along the arc, through t^trunc, as numerators over
    dz^(n+1) dx dy; every one must vanish."""
    dx, dy, dz = arc.den
    m, order = arc.n + 1, arc.trunc
    zp = [0] * (order + 1)
    k = _first_nonzero(arc.z)
    if k is not None and k * m <= order:
        zp[k * m :] = _unit_pow(arc.z[k:], m, order - k * m)
    xy = _int_mul(arc.x, arc.y, order)
    lift = dz**m
    return tuple(c * dx * dy - d * lift for c, d in zip(zp, xy))
