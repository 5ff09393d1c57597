"""Exact integer polynomial work: minimal recurrences, root exclusion, factoring.

Everything here works over plain Python ints (ascending coefficient lists,
index = power) so callers get provable answers.  The minimal recurrence of an
integer sequence comes from Berlekamp-Massey modulo word-sized primes glued by
CRT and is then checked exactly over the integers; whether a polynomial may
vanish on a rational interval is decided by an exact mean-value bound, so no
conclusion rests on a float.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_factor

from .fpoly import is_prime


def _berlekamp_massey(seq: list[int], q: int) -> list[int]:
    """Monic ascending polynomial of the shortest recurrence of seq mod q."""
    c, b = [1], [1]  # connection polynomials, c[0] = 1
    order, shift, last = 0, 1, 1
    for k in range(len(seq)):
        d = sum(c[i] * seq[k - i] for i in range(min(len(c), k + 1))) % q
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, -1, q) % q
        prev = c
        c = c + [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = (c[i + shift] - coef * bi) % q
        if 2 * order <= k:
            order, b, last, shift = k + 1 - order, prev, d, 1
        else:
            shift += 1
    c = c[: order + 1] + [0] * (order + 1 - len(c))
    return c[::-1]


def minimal_recurrence(seq: list[int], max_order: int) -> list[int]:
    """Monic minimal polynomial (ascending) of an integer sequence.

    The sequence must satisfy some integer recurrence of order at most
    max_order, and len(seq) >= 2 * max_order must hold.  Berlekamp-Massey runs
    modulo primes below 2^62; only results of the largest order seen so far
    are glued by CRT, until one more prime leaves the lift unchanged.  The
    lift is then checked exactly on every term: with both it and the true
    minimal polynomial of order <= max_order, agreement on 2 * max_order terms
    means it holds forever, and since no prime found a shorter recurrence it
    is the minimal one.
    """
    if len(seq) < 2 * max_order:
        raise ValueError(f"need {2 * max_order} terms, got {len(seq)}")
    q, order, lift = 1 << 62, -1, None
    while True:
        q -= 1
        while not is_prime(q):
            q -= 1
        rec = _berlekamp_massey([s % q for s in seq], q)
        if len(rec) - 1 < order:
            continue
        if len(rec) - 1 > order:
            order, residues, mod, lift = len(rec) - 1, [0] * len(rec), 1, None
        inv = pow(mod, -1, q)
        residues = [x + mod * ((r - x) * inv % q) for x, r in zip(residues, rec)]
        mod *= q
        new = [x - mod if x > mod // 2 else x for x in residues]
        if new == lift:
            break
        lift = new
    if order > max_order:
        raise ArithmeticError(f"recurrence order {order} exceeds {max_order}")
    for k in range(len(seq) - order):
        if sum(c * s for c, s in zip(lift, seq[k:])):
            raise ArithmeticError(f"recurrence fails at term {k + order}")
    return lift


def may_vanish(c: list[int], lo: Fraction, hi: Fraction) -> bool:
    """False when an exact mean-value bound proves c has no root in [lo, hi].

    For 0 <= lo <= x <= hi, c(x) differs from c(mid) by at most the half-width
    times sum i |c_i| hi^(i-1), so a larger |c(mid)| excludes every root.
    """
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    value = slope = Fraction(0)
    for i in range(len(c) - 1, -1, -1):
        value = value * mid + c[i]
        if i:
            slope = slope * hi + i * abs(c[i])
    return abs(value) <= half * slope


def _to_dup(c: list[int]) -> list:
    desc = [int(v) for v in reversed(c)]
    while desc and desc[0] == 0:
        desc.pop(0)
    return [ZZ(v) for v in desc]


def _from_dup(d) -> list[int]:
    return [int(v) for v in reversed(d)]


def factor_int_poly(c: list[int]) -> list[list[int]]:
    """Irreducible integer factors (ascending lists), by Zassenhaus's Hensel lifting."""
    _, facs = dup_zz_factor(_to_dup(c), ZZ)
    return [_from_dup(f) for f, _ in facs]
