"""Piecewise-quadratic limits of a(n)/n^2, derived from any base-p recursion.

L(x) = lim a(n)/n^2 along n = floor(p^k/x) is piecewise quadratic on [1/p, 1]
and invariant under x -> p*x; L(x) = x^2 Phi(1/x), Phi(y) = lim a(p^k y)/p^(2k).
Exact: with V(n) = (a(n), ..., a(n+w), 1) and V(pn) = M_0 V(n), Phi(m/p^i) =
p^(-2i) l.V(m) at every p-adic point of [1, p], l the first row of M_0's
p^2-eigenprojection.  p^2 must be a simple root of det(tI - M_0) and every
other root smaller in modulus, else ArithmeticError: decided exactly by
linrep.LinearRepresentation.dominant_component on mu, M_0's minimal
polynomial, certified by the exact check mu(M_0) = 0 (p^2 a simple root of
mu, M_0 - p^2 I of nullity 1, Schur-Cohn on mu/(t - p^2)).  Only checked:
the pieces, fitted on a grid that cuts each cell [m, m+1] of [1, p]
at its own level i (adjacent pieces meet at the double root of their
difference, as Phi' is continuous) and accepted when every level-(i+1) point
of every cell lies on its piece; a cell that holds a miss, or a run too short
to fit, goes one level deeper.  A law built on an inferred recursion is only
as good as that recursion.  Floats appear only in empirical ratios and CSV
rendering.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .blocks import RecursionSpec, a_from_recursion, a_from_recursion_range
from .linrep import LinearRepresentation

F = Fraction

# Largest grid a law is checked on: level 16 at p = 2; 3p^2 + (p-4)p + 1
# points for 1+x mod p, up to p = 181 (about 2.5 s).
MAX_LAW_POINTS = 2**17
# Largest sum of the exponents ks+j of the powers p^(ks+j) whose s-th roots
# are the samples of oscillation_table, s^2 K(K+1)/2 + K s(s-1)/2 for s
# samples per octave up to p^K.  It bounds the roots, and with them the memo
# of the shared descents: K = 723 at s = 1 (about 0.02 s), s = 418 at K = 1.
MAX_SAMPLE_DIGITS = 2**18


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
        return next(piece for piece in self.pieces if x <= piece.hi)(x)


@dataclass(frozen=True)
class ExtremaResult:
    inf: Fraction
    sup: Fraction
    arg_inf: Fraction
    arg_sup: Fraction


def _projection_row(rec: RecursionSpec) -> tuple[list[int], int]:
    """(r, D): r/D is the first row of the p^2-eigenprojection of M_0, the
    dominant component of the representation whose B is M_0 (see
    LinearRepresentation.dominant_component)."""
    p, rows = rec.p, rec.rows
    w = max(map(len, rows)) - 1  # V(n) = (a(n), ..., a(n+w), 1)
    while any(j // p + len(rows[j % p]) - 1 > w for j in range(w + 1)):
        w += 1
    n, lam = w + 2, p * p
    m0 = [[0] * n for _ in range(n)]
    for j in range(w + 1):
        for i, c in enumerate(rows[j % p]):
            m0[j][j // p + i] = c
        m0[j][-1] = -rec.constant
    m0[-1][-1] = 1
    e0 = [1] + [0] * (n - 1)
    rep = LinearRepresentation.dense([m0], e0, e0)
    component = rep.dominant_component(lam)
    if component is None:
        raise ArithmeticError(
            f"p^2 = {lam} is not a simple dominant root of the characteristic "
            f"polynomial of the recursion's M_0, whose minimal polynomial is "
            f"{rep.minimal_polynomial()[::-1]}")
    return component


def _points(rec: RecursionSpec, row: list[int], denom: int,
            levels: list[int]) -> list[tuple[Fraction, Fraction]]:
    """(y, Phi(y)) on [1, p], the cell [m, m+1] cut on the level-levels[m-1]
    grid; exact, Phi(n/p^j) = l.V(n)/(D p^(2j)) at a level j >= the point's,
    where V(pn) = M_0 V(n) holds."""
    p, w = rec.p, len(row) - 2
    j0 = 0
    while p ** (j0 + 1) < rec.threshold:
        j0 += 1
    a = a_from_recursion_range(
        rec, max((m + 1) * p ** max(i, j0) for m, i in enumerate(levels, 1)) + w)

    def phi(n: int, i: int) -> Fraction:  # Phi(n/p^i)
        j = max(i, j0)
        n *= p ** (j - i)
        return F(sum(map(mul, row, a[n:n + w + 1])) + row[-1], denom * p ** (2 * j))

    pts = [(F(1), phi(1, 0))]
    for m, i in enumerate(levels, 1):
        pts += [(F(n, p**i), phi(n, i)) for n in range(m * p**i + 1, (m + 1) * p**i + 1)]
    return pts


def _quadratic(pts) -> Piece:
    """The quadratic in y through three points (y, Phi(y)), over their span."""
    (y0, f0), (y1, f1), (y2, f2) = pts
    slope = (f1 - f0) / (y1 - y0)
    alpha = ((f2 - f1) / (y2 - y1) - slope) / (y2 - y0)
    return Piece(y0, y2, alpha, slope - alpha * (y0 + y1), f0 - slope * y0 + alpha * y0 * y1)


def _fit(pts):
    """(pieces, None), the quadratic pieces in y of Phi through the points, or
    (None, (lo, hi)), the span to refine where a run of points on one
    quadratic is shorter than three or two runs do not meet at a double root."""
    y = [t for t, _ in pts]
    starts, t = [0], 3  # a point off the quadratic through the three before starts a run
    while t < len(pts):
        if _quadratic(pts[t - 3:t])(y[t]) != pts[t][1]:
            starts.append(t)
            t += 3
        else:
            t += 1
    ends = starts[1:] + [len(pts)]
    if ends[-1] - starts[-1] < 3:
        return None, (y[max(starts[-1] - 1, 0)], y[-1])
    quads = [_quadratic(pts[s:s + 3]) for s in starts]
    cuts = [y[0]]
    for k in range(1, len(starts)):
        # Phi' is continuous, so adjacent pieces differ by da (y - cut)^2
        (s0, s1), e1, left, right = starts[k - 1:k + 1], ends[k], quads[k - 1], quads[k]
        da, db, dc = left.a - right.a, left.b - right.b, left.c - right.c
        cut = -db / (2 * da) if da and db * db == 4 * da * dc else None
        if cut is None or not y[s1 - 1] <= cut <= y[s1]:
            # refine the gap, with either run if its three points went unchecked
            return None, (y[s0] if s1 - s0 == 3 else y[s1 - 1],
                          y[e1 - 1] if e1 - s1 == 3 else y[s1])
        cuts.append(cut)
    return [replace(q, lo=lo, hi=hi) for lo, hi, q in zip(cuts, cuts[1:] + [y[-1]], quads)], None


@lru_cache(maxsize=None)
def limit_function(rec: RecursionSpec) -> PiecewiseQuadratic:
    """Exact limit of a(n)/n^2 along n = floor(p^k/x), derived from rec."""
    row, denom = _projection_row(rec)
    p = rec.p
    levels = [0] * (p - 1)  # the grid level of each cell [m, m+1] of [1, p]
    while True:
        check = [i + 1 for i in levels]
        if 1 + sum(p**i for i in check) > MAX_LAW_POINTS:
            raise ArithmeticError(
                f"no piece structure confirmed on grids within MAX_LAW_POINTS = {MAX_LAW_POINTS}")
        pieces, span = _fit(_points(rec, row, denom, levels))
        if span:
            cells = range(int(span[0]), math.ceil(span[1]))
        else:  # the cells holding a point of the next level off its piece
            cuts = [pc.lo for pc in pieces]
            cells = {int(y) for y, f in _points(rec, row, denom, check)
                     if f != pieces[bisect_right(cuts, y) - 1](y)}
            if not cells:
                # Phi(y) = a y^2 + b y + c gives L(x) = Phi(1/x) x^2 = c x^2 + b x + a
                return PiecewiseQuadratic(tuple(
                    Piece(1 / pc.hi, 1 / pc.lo, pc.c, pc.b, pc.a) for pc in reversed(pieces)))
        for m in cells:
            levels[m - 1] += 1


def extrema(rec: RecursionSpec) -> ExtremaResult:
    """Global inf/sup of the limit function by per-piece vertex analysis."""
    pq = limit_function(rec)
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


def _iroot(n: int, s: int) -> int:
    """floor(n^(1/s)) for n >= 0 and s >= 1, exact: Newton's iteration from
    above decreases strictly until it reaches the floor."""
    if n < 2 or s == 1:
        return n
    x = 1 << -(-n.bit_length() // s)
    while True:
        y = ((s - 1) * x + n // x ** (s - 1)) // s
        if y >= x:
            return x
        x = y


def oscillation_table(rec: RecursionSpec, samples_per_octave: int,
                      k_max: int) -> list[tuple[float, float]]:
    """(log_p n, a(n)/n^2) at n = floor(p^(k + j/s)), k = 1..k_max, j < s."""
    s = samples_per_octave
    if s < 1:
        raise ValueError("samples_per_octave must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    digits = s * (s * k_max * (k_max + 1) + k_max * (s - 1)) // 2  # sum of ks+j
    if digits > MAX_SAMPLE_DIGITS:
        raise ValueError(
            f"{s} samples per octave up to p^{k_max} take roots of powers of "
            f"{digits} base-p digits in all, over MAX_SAMPLE_DIGITS = {MAX_SAMPLE_DIGITS}")
    p, logp = rec.p, math.log(rec.p)
    ns = sorted({_iroot(p ** (k * s + j), s) for k in range(1, k_max + 1) for j in range(s)})
    # floor(n/p) of a sample is the sample an octave lower: ascending
    # samples share their descents through one memo
    known: dict[int, int] = {}
    return [(math.log(n) / logp, a_from_recursion(rec, n, known) / (n * n)) for n in ns]


def oscillation_csv(rows: list[tuple[float, float]]) -> str:
    lines = ["logn,ratio"]
    lines.extend(f"{ln:.12g},{ratio:.12g}" for ln, ratio in rows)
    return "\n".join(lines) + "\n"
