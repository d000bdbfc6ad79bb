"""Arc-level ground truth for the weight-2 bamboo singularities z^(n+1) = x y.

z^(n+1) = x y is the quotient C^2 / mu_(n+1), with quotient map
(a, b) -> (a^(n+1), b^(n+1), a b).  Arcs of each family N_i are drawn
through it, from two seeded integer unit series a and b; the contact
orders of the coordinates are read off them, they are checked against
the defining equation, and the coefficient separation that keeps
distinct families out of each other's closures is reported, which the
sampler builds in.  Everything is exact integer arithmetic; randomness
is fully seeded.
"""
from __future__ import annotations

import random
from typing import Any, NamedTuple, Sequence

from .errors import BadFamilyIndex, SameVertex, TruncationTooSmall

Series = tuple[int, ...]  # the coefficient of t^k at index k


# generic small coefficients, plus three zeros; leading terms draw from the
# nonzero ones, so a and b are units and no leading term cancels
_NONZERO_DRAWS = (1, -1, 2, -2, 3, -3)
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

    x, y and z hold the integer coefficients of t^0..t^trunc.
    """

    n: int
    family: int
    trunc: int
    x: Series
    y: Series
    z: Series


def sample_arc(n: int, i: int, trunc: int, seed: Any) -> TruncatedArc:
    """Draw a generic arc of N_i through the quotient map: for unit series
    a and b, x = t^i a^(n+1), y = t^(n+1-i) b^(n+1) and z = t a b.

    Every arc of N_i has this form over C (a = (x / t^i)^(1/(n+1)),
    b = z / (t a)), so ord(x) = i, ord(y) = n+1-i, ord(z) = 1 and
    z^(n+1) = x y hold by construction.
    """
    if not 1 <= i <= n:
        raise BadFamilyIndex(f"family index {i} not in 1..{n}")
    if trunc < n + 2:
        raise TruncationTooSmall(f"truncation {trunc} must be at least {n + 2}")
    rng = random.Random(repr(("nasharcs-arc", n, i, trunc, seed)))
    a = [rng.choice(_NONZERO_DRAWS)] + [rng.choice(_DRAWS) for _ in range(trunc)]
    b = [rng.choice(_NONZERO_DRAWS)] + [rng.choice(_DRAWS) for _ in range(trunc)]
    j = n + 1 - i  # >= 1
    return TruncatedArc(
        n=n,
        family=i,
        trunc=trunc,
        x=(0,) * i + tuple(_unit_pow(a, n + 1, trunc - i)),
        y=(0,) * j + tuple(_unit_pow(b, n + 1, trunc - j)),
        z=(0,) + tuple(_int_mul(a, b, trunc - 1)),
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
    draws x = t^i a^(n+1) so that both hold: in family i the t^i
    coefficient of x is a(0)^(n+1), nonzero because a(0) is drawn from
    the nonzero draws, and in family j x is zero below t^j.  So the
    report, for any `samples` and `seed`, says "passed" with no
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
    """z^(n+1) - x y along the arc, through t^trunc; every coefficient
    must vanish."""
    m, order = arc.n + 1, arc.trunc
    zp = [0] * (order + 1)
    k = _first_nonzero(arc.z)
    if k is not None and k * m <= order:
        zp[k * m :] = _unit_pow(arc.z[k:], m, order - k * m)
    xy = _int_mul(arc.x, arc.y, order)
    return tuple(c - d for c, d in zip(zp, xy))
