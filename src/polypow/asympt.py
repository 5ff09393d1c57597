"""Piecewise-quadratic limits of a(n)/n^2 and empirical convergence sampling.

The limit L(x) of a(floor(p^k/x))/floor(p^k/x)^2 is piecewise quadratic on
[1/p, 1] and invariant under x -> p*x.  Everything here is exact Fraction
arithmetic except the final float in empirical ratios and CSV rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .blocks import RecursionSpec, a_from_recursion
from .fpoly import check_prime

F = Fraction


@dataclass(frozen=True)
class OnePlusX:
    """The family 1+x mod p."""

    p: int

    def __post_init__(self):
        check_prime(self.p)


@dataclass(frozen=True)
class OnePlusXPlusX2Mod2:
    """The family 1+x+x^2 mod 2."""


ONE_PLUS_X_PLUS_X2_MOD2 = OnePlusXPlusX2Mod2()

Family = OnePlusX | OnePlusXPlusX2Mod2


@dataclass(frozen=True)
class Piece:
    lo: Fraction
    hi: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return (self.a * x + self.b) * x + self.c


@dataclass(frozen=True)
class PiecewiseQuadratic:
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValueError("need at least one piece")
        for left, right in zip(ps, ps[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile the domain without gaps")
            if left(left.hi) != right(right.lo):
                raise ValueError("pieces must agree at shared endpoints")
        if ps[0](ps[0].lo) != ps[-1](ps[-1].hi):
            raise ValueError("limit must be invariant under x -> p*x")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.pieces[0].lo, self.pieces[-1].hi

    def __call__(self, x) -> Fraction:
        x = F(x)
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        for piece in self.pieces:
            if x <= piece.hi:
                return piece(x)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class ExtremaResult:
    inf: Fraction
    sup: Fraction
    arg_inf: Fraction
    arg_sup: Fraction


def _vertex_piece(lo, hi, a, vertex, floor_value) -> Piece:
    # a*(x - vertex)^2 + floor expanded to monomial coefficients
    a, vertex, floor_value = F(a), F(vertex), F(floor_value)
    return Piece(F(lo), F(hi), a, -2 * a * vertex, a * vertex * vertex + floor_value)


def limit_function(family: Family) -> PiecewiseQuadratic:
    """Exact limit of a(n)/n^2 along n = floor(p^k/x) as k grows, per family."""
    if isinstance(family, OnePlusXPlusX2Mod2):
        return PiecewiseQuadratic((
            Piece(F(1, 2), F(2, 3), F(-5, 12), F(1, 2), F(5, 4)),
            Piece(F(2, 3), F(1, 1), F(7, 48), F(-1, 4), F(3, 2)),
        ))
    p = family.p
    if p == 2:
        # degree-1 base case: a(n) = n^2 - n + 2, so the ratio tends to 1
        return PiecewiseQuadratic((Piece(F(1, 2), F(1), F(0), F(0), F(1)),))
    pieces = []
    if p == 5:
        pieces.append(Piece(F(1, 5), F(1, 3), F(0), F(20), F(8)))
    elif p > 5:
        # the generic first piece has a removable (p-5) factor; p=5 above, p=3 degenerate
        pieces.append(_vertex_piece(
            F(1, p), F(1, 3),
            F(p * p * (p - 5) * (p - 1), 2 * (p + 1)),
            F(-(p + 1), p * (p - 5)),
            F((p - 1) * (p * p - 7 * p + 4), 2 * (p - 5)),
        ))
    d2 = 7 * p**3 - 8 * p**2 - 9 * p + 18
    pieces.append(_vertex_piece(
        F(1, 3), F(1, 2),
        F(-(p - 1) * d2, 4 * (p + 1)),
        F((p + 1) * (3 * p * p - 7 * p + 6), d2),
        F((p - 1) * (p**5 + 5 * p**4 - 8 * p**3 - 15 * p**2 + 39 * p - 18), 2 * d2),
    ))
    d3 = p * p + 2 * p + 5
    pieces.append(_vertex_piece(
        F(1, 2), F(1),
        F((p - 2) * (p - 1) * d3, 4 * (p + 1)),
        F((p + 1) ** 2, d3),
        F((p - 1) * (p**3 + 4 * p**2 + 3 * p - 4), 2 * d3),
    ))
    return PiecewiseQuadratic(tuple(pieces))


def extrema(family: Family) -> ExtremaResult:
    """Global inf/sup of the limit function by per-piece vertex analysis."""
    pq = limit_function(family)
    candidates: list[tuple[Fraction, Fraction]] = []
    for piece in pq.pieces:
        candidates.append((piece.lo, piece(piece.lo)))
        candidates.append((piece.hi, piece(piece.hi)))
        if piece.a != 0:
            vx = -piece.b / (2 * piece.a)
            if piece.lo <= vx <= piece.hi:
                candidates.append((vx, piece(vx)))
    inf_x, inf_v = min(candidates, key=lambda t: (t[1], t[0]))
    sup_x, sup_v = max(candidates, key=lambda t: (t[1], -t[0]))
    return ExtremaResult(inf=inf_v, sup=sup_v, arg_inf=inf_x, arg_sup=sup_x)


def empirical_ratio(rec: RecursionSpec, x, k: int) -> float:
    """a(n)/n^2 at n = floor(p^k/x); a(n) is exact, only the ratio is a float."""
    x = F(x)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not F(1, rec.p) <= x <= 1:
        raise ValueError("x must lie in [1/p, 1]")
    n = (rec.p**k * x.denominator) // x.numerator
    return a_from_recursion(rec, n) / (n * n)


def oscillation_table(rec: RecursionSpec, samples_per_octave: int,
                      k_max: int) -> list[tuple[float, float]]:
    """Deterministic (log_p n, a(n)/n^2) samples, one octave per power of p."""
    if samples_per_octave < 1:
        raise ValueError("samples_per_octave must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    p = rec.p
    ns: set[int] = set()
    for k in range(1, k_max + 1):
        base = p**k
        for j in range(samples_per_octave):
            n = int(base * p ** (j / samples_per_octave))
            if n >= 1:
                ns.add(n)
    logp = math.log(p)
    return [(math.log(n) / logp, a_from_recursion(rec, n) / (n * n))
            for n in sorted(ns)]


def oscillation_csv(rows: list[tuple[float, float]]) -> str:
    lines = ["logn,ratio"]
    lines.extend(f"{ln:.12g},{ratio:.12g}" for ln, ratio in rows)
    return "\n".join(lines) + "\n"
