"""Exact power-series prefixes of a(n), from closed generating functions.

A base-p recursion a(pn+k) = sum_j c_kj a(n+j) - K gives
G(z) = C(z) G(z^p) + P(z) - K/(1-z), where C(z) = sum c_kj z^(k-pj) and the
Laurent polynomial P corrects the terms below the threshold.  A Laurent
polynomial r with r(z^p) = C(z) r(z) turns this into the self-similarity
equation r(z) G(z) = r(z^p) G(z^p) + b(z), b = r (P - K/(1-z)).  r exists
only when C's top coefficient is 1, and then comes by back-substitution
from its own top coefficient.  b is read off the equation, as the
coefficients of r(z) G(z) - r(z^p) G(z^p); P only bounds its support.
series gives a(0..N) only for a recursion with this shape.  series_1px,
the hand-made closed form of 1+x mod p, runs at primes far past those
whose p-row recursion can be built.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .blocks import RecursionSpec, a_from_recursion_range
from .fpoly import check_prime


class Laurent(NamedTuple):
    """The Laurent polynomial sum_i coeffs[i] z^(lo+i)."""

    lo: int
    coeffs: tuple[int, ...]


def series_1px(p: int, n_terms: int) -> list[int]:
    """First n_terms+1 line-complexity values of 1+x mod p, from the closed form.

    Numerator: 1 + (p-3)z + (p^2-3p+3)z^2
               + z^2 * (p-1)^2/2 * sum_i (p z^(p^i) - 2(p-1) z^(2p^i) + (p-2) z^(3p^i)),
    over (1-z)^3.  Stated for p >= 3; the p=2 specialization is exact as well
    (it telescopes to (1 - z + z^2 + z^3)/(1-z)^3, matching n^2 - n + 2).
    """
    check_prime(p)
    if n_terms < 0:
        raise ValueError("series length must be >= 0")
    num = [0] * (n_terms + 1)
    head = (1, p - 3, p * p - 3 * p + 3)
    for e, c in enumerate(head):
        if e <= n_terms:
            num[e] += c
    half_sq = (p - 1) * (p - 1)  # applied as /2 below; all weights stay integral
    weights = ((1, half_sq * p // 2), (2, -half_sq * (p - 1)), (3, half_sq * (p - 2) // 2))
    for mult, w in weights:
        q = 1
        while 2 + mult * q <= n_terms:
            num[2 + mult * q] += w
            q *= p
    for _ in range(3):
        num = list(accumulate(num))  # division by 1 - z
    return num


def _multiplier(rec: RecursionSpec) -> Laurent:
    """The r(z) with r(z^p) = C(z) r(z) and top coefficient 1.

    The z^(p hi) coefficient says C_top r_hi = r_hi, so r exists only if
    C_top = 1; then the z^(c_hi + j) coefficient gives r_j from the r_i with
    i > j alone (e/p > j too), so r is integral and unique up to scale, and
    it exists when every other coefficient then vanishes as well.
    """
    p = rec.p  # k - pj with 0 <= k < p names each (k, j) once
    c_poly = {k - p * j: c for k, row in enumerate(rec.rows) for j, c in enumerate(row) if c}
    # both sides have the same lowest and highest terms: p*lo = min C + lo
    c_lo, c_hi = min(c_poly, default=0), max(c_poly, default=0)
    (lo, lo_rem), (hi, hi_rem) = divmod(c_lo, p - 1), divmod(c_hi, p - 1)
    if lo_rem or hi_rem:
        raise ArithmeticError(f"the support [{c_lo}/{p - 1}, {c_hi}/{p - 1}] of r is not integral")
    r = {hi: 1}

    def excess(e: int) -> int:  # the z^e coefficient of C(z) r(z) - r(z^p)
        cr = sum(c * r.get(e - s, 0) for s, c in c_poly.items())
        return cr - (0 if e % p else r.get(e // p, 0))

    for j in range(hi - 1, lo - 1, -1):
        r[j] = -excess(c_hi + j)  # r_j unset: C_top r_j left out, C_top = 1 checked below
    if any(excess(e) for e in range(c_lo + lo, c_hi + hi + 1)):
        raise ArithmeticError("no Laurent polynomial r(z) solves r(z^p) = C(z) r(z)")
    return Laurent(lo, tuple(r[j] for j in range(lo, hi + 1)))


def closed_form(rec: RecursionSpec) -> tuple[Laurent, Laurent]:
    """(r, b) of r(z) G(z) = r(z^p) G(z^p) + b(z), exact from the recursion.

    Raises ArithmeticError, naming the failed step, when the support of r is
    not integral, no r exists, or (1 - z) does not divide r while K != 0.
    """
    r = _multiplier(rec)
    if rec.constant and sum(r.coeffs):  # -K r/(1-z) is then an infinite series
        raise ArithmeticError("(1 - z) does not divide r(z), so b(z) = "
                              "r(z)(P(z) - K/(1 - z)) is not a Laurent polynomial")
    p, reach = rec.p, max(len(row) for row in rec.rows)
    # b = r (P - K/(1-z)) with P on [-p reach, threshold - 1] and r/(1-z) on
    # [r.lo, r.hi - 1] lies on [lo, hi]
    lo, hi = r.lo - p * reach, r.lo + len(r.coeffs) + rec.threshold - 2
    a = a_from_recursion_range(rec, max(hi, 0) - r.lo)

    def rg(e: int) -> int:  # the z^e coefficient of r(z) G(z), a(n) = 0 for n < 0
        return sum(ri * a[e - r.lo - i] for i, ri in enumerate(r.coeffs) if e - r.lo - i >= 0)

    b = {e: rg(e) - (0 if e % p else rg(e // p)) for e in range(lo, hi + 1)}
    support = [e for e, c in b.items() if c] or [0]
    lo, hi = min(support), max(support)
    return r, Laurent(lo, tuple(b.get(e, 0) for e in range(lo, hi + 1)))


def series(rec: RecursionSpec, n_terms: int) -> list[int]:
    """[a(0), ..., a(n_terms)] of rec, once closed_form(rec) exists.

    The values are rec's own; closed_form raises ArithmeticError when the
    generating function lacks the shape r(z) G(z) = r(z^p) G(z^p) + b(z).
    """
    if n_terms < 0:
        raise ValueError("series length must be >= 0")
    closed_form(rec)
    return a_from_recursion_range(rec, n_terms)


def series_to_csv(series: list[int]) -> str:
    lines = ["n,a_n"]
    lines.extend(f"{i},{v}" for i, v in enumerate(series))
    return "\n".join(lines) + "\n"
