"""Exact power-series prefixes of a(n), from closed generating functions.

A base-p recursion a(pn+k) = sum_j c_kj a(n+j) - K gives
G(z) = C(z) G(z^p) + P(z) - K/(1-z), where C(z) = sum c_kj z^(k-pj) and the
Laurent polynomial P corrects the terms below the threshold.  A Laurent
polynomial r with r(z^p) = C(z) r(z) turns this into the self-similarity
equation r(z) G(z) = r(z^p) G(z^p) + b(z), b = r (P - K/(1-z)).  series
gives a(0..N) only for a recursion with this shape.  series_1px, the
hand-made closed form of 1+x mod p, runs at primes far past those whose
p-row recursion can be built.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple

from .blocks import RecursionSpec, _solve_exact, a_from_recursion_range
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
    """The r(z) with r(z^p) = C(z) r(z), primitive with a positive top coefficient."""
    p = rec.p  # k - pj with 0 <= k < p names each (k, j) once
    c_poly = {k - p * j: c for k, row in enumerate(rec.rows) for j, c in enumerate(row) if c}
    # both sides have the same lowest and highest terms: p*lo = min C + lo;
    # C = 0 leaves the one equation r_0 = 0, which the pin makes inconsistent
    c_lo, c_hi = min(c_poly, default=0), max(c_poly, default=0)
    (lo, lo_rem), (hi, hi_rem) = divmod(c_lo, p - 1), divmod(c_hi, p - 1)
    if lo_rem or hi_rem:
        raise ArithmeticError(f"the support [{c_lo}/{p - 1}, {c_hi}/{p - 1}] of r is not integral")
    # per exponent e: sum_s C_s r_(e-s) - r_(e/p) = 0; r_hi is pinned to 1,
    # so its column moves to the right-hand side with its sign flipped
    width, equations = hi - lo, {}
    for at in range(lo, hi + 1):
        col, sign = (at - lo, 1) if at < hi else (width, -1)
        for e, c in [(s + at, c) for s, c in c_poly.items()] + [(p * at, -1)]:
            equations.setdefault(e, [0] * (width + 1))[col] += sign * c
    # the kernel has dimension at most 1: the ratio f of two solutions has
    # f(z^p) = f(z), so its zeros and poles lie at 0 and infinity and f is
    # a constant; so with r_hi pinned the rank is width whenever r exists
    sol, rank = _solve_exact(list(equations.values()), width)
    if sol is None or rank < width:
        raise ArithmeticError("no Laurent polynomial r(z) solves r(z^p) = C(z) r(z)")
    scale = lcm(*(v.denominator for v in sol))
    ints = [int(v * scale) for v in sol + [1]]
    g = gcd(*ints)
    return Laurent(lo, tuple(v // g for v in ints))


def closed_form(rec: RecursionSpec) -> tuple[Laurent, Laurent]:
    """(r, b) of r(z) G(z) = r(z^p) G(z^p) + b(z), exact from the recursion.

    Raises ArithmeticError, naming the failed step, when the support of r is
    not integral, no r exists, or (1 - z) does not divide r while K != 0.
    """
    r = _multiplier(rec)
    p, reach = rec.p, max(len(row) for row in rec.rows)
    a = a_from_recursion_range(rec, max(rec.threshold + reach, -r.lo))
    # P(z) = G(z) - C(z) G(z^p) + K/(1-z) vanishes from the threshold on
    b = defaultdict(int)
    for m in range(-p * reach, rec.threshold):
        q, k = divmod(m, p)
        rule = sum(c * a[q + j] for j, c in enumerate(rec.rows[k]) if q + j >= 0)
        forcing = (a[m] + rec.constant if m >= 0 else 0) - rule
        for i, ri in enumerate(r.coeffs):
            b[r.lo + i + m] += ri * forcing
    # -K r/(1-z) has the prefix sums of r as coefficients, finite iff r(1) = 0
    run = 0
    for i, ri in enumerate(r.coeffs):
        run += ri
        b[r.lo + i] -= rec.constant * run
    if run and rec.constant:
        raise ArithmeticError("(1 - z) does not divide r(z), so b(z) = "
                              "r(z)(P(z) - K/(1 - z)) is not a Laurent polynomial")
    support = [e for e, c in b.items() if c] or [0]
    return r, Laurent(min(support), tuple(b[e] for e in range(min(support), max(support) + 1)))


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
