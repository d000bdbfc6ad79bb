"""Arc-level ground truth for the weight-2 bamboo singularities z^(n+1) = x y.

Samples truncated power-series arcs in each family N_i, reads the contact
orders of the coordinates off them, checks that they satisfy the defining
equation, and checks the coefficient separation that keeps distinct
families out of each other's closures.  Everything is exact integer
arithmetic: each coordinate is a tuple of integer numerators over its own
denominator; randomness is fully seeded.
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
    """Check the open condition separating N_i from the closure of N_j.

    Every arc of N_i must have a nonzero coefficient of t^i in x, while
    every arc of N_j (j > i) has that coefficient equal to zero.  The
    report lists each failing sample under "counterexamples"; "passed"
    is true when there is none.  `_draw_x` builds both facts in, so on
    its own arcs this restates the sampler and cannot fail.  The caller
    checks that `samples` is at least 1.
    """
    if i == j:
        raise SameVertex("separation needs two distinct families")
    if not 1 <= i < j <= n:
        raise BadFamilyIndex(f"need 1 <= i < j <= n, got i={i}, j={j}")
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
