"""Transfer maps for the nonzero-coefficient counts of f^k mod p.

A state is a nonzero accessible window of length d+1 of a coefficient row,
for f of degree d.  Row pm+r is f(x^p)^m f^r, so each of the p*p cuts of
blocks.window_maps sends the window at t of row m to a window of row pm+r:
the maps come as one (p, p, windows) array, and maps[r, j] sends it to the
window at pt+dr+j (dr = rd).  Summing the p maps maps[r] gives the count
matrix B_r, and B = B_0 + ... + B_(p-1) satisfies u.B^k.v = r(p^k), the
number of nonzero coefficients in rows 0..p^k-1: v marks the windows of
row 0 and u the windows whose first digit is nonzero.  The matrices are
never stored: the maps are the only representation, and B acts on vectors
by gathering along them in target order and summing each target's run.
TransferSystem.rep is this count identity as a linrep.LinearRepresentation
(left u, right v): perron and count_sequence read its Krylov walk B^k.v, and
verify_counts its values u.B_(m_0)...B_(m_top).v, the row counts q(m).

The dominant growth rate lambda (so the fractal dimension log_p lambda) is
the spectral radius of B, certified in one walk of the exact vectors B^k.v
(see perron): their counts r(p^k) give the minimal recurrence by
Berlekamp-Massey, certified over the integers on 2n+2 terms for n states,
and a later pair of them gives a Collatz-Wielandt bracket on lambda, which
by Pringsheim's theorem is the largest real root of that recurrence.  Its
minimal polynomial is the one irreducible factor of the recurrence that may
vanish on the bracket.  spectrum runs the whole pipeline for one polynomial:
build the maps, optionally check the count identities, certify lambda and
factor.

There are at most p^(d+1) states and p*p maps, so MAX_TRANSFER_EDGES bounds
p^(d+3) before anything is allocated; MAX_VERIFY_ROWS bounds the p^depth
rows that verify_counts expands, and MAX_VERIFY_CELLS their p^depth
vectors over the states.

Polynomials mod 2 that differ by the similarity moves (shifts by x^c,
reversal, substitution x -> x^c, c-th powers) share lambda, so the survey
runs over canonical representatives only, the fixed points of canonicalize
that enumerate_classes lists; eigen_bound is a bound mod 2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np

from ._zzpoly import factor_int_poly, may_vanish, minimal_recurrence
from .blocks import window_maps
from .fpoly import FpPoly, format_poly, iter_rows, poly_pow, squarefree_parts
from .linrep import LinearRepresentation

# Degree 12 at p = 2 (5660 states, built in under a second); 1+x mod 13
# (28561) takes about a second, while 1+x+x^2 mod 11 (161051) takes minutes.
MAX_TRANSFER_EDGES = 2**15
# 2^14 rows at p = 2 take 0.2 to 0.7 s up to degree 6, 1.4 s for 1+x+x^9.
MAX_VERIFY_ROWS = 2**14
# p^depth per-row vectors of one int64 per state: 2^24 entries are 128 MB.
# 1+x+x^12 (5660 states) fits at depth 10; at depth 14 its last level of
# vectors alone would take 742 MB.
MAX_VERIFY_CELLS = 2**24
# perron's bracket: endpoints on multiples of 1/_GRID, width at most _WIDTH,
# walked at most 2n * 2^_MAX_DOUBLINGS steps for n states
_GRID = 2**64
_WIDTH = Fraction(1, 10**9)
_MAX_DOUBLINGS = 4


class SpectralMismatchError(ArithmeticError):
    """The transfer maps disagree with the brute-force counts."""


def _over(p: int, e: int, cap: int) -> bool:
    """p^e > cap for p >= 2, without building p^e when e is large."""
    return e >= cap.bit_length() or p**e > cap


def _check_edges(p: int, d: int) -> None:
    if _over(p, d + 3, MAX_TRANSFER_EDGES):
        raise ValueError(
            f"degree {d} mod {p} allows {p}^{d + 3} transfer edges, "
            f"over MAX_TRANSFER_EDGES = {MAX_TRANSFER_EDGES}")


def _check_depth(p: int, depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if _over(p, depth, MAX_VERIFY_ROWS):
        raise ValueError(
            f"depth {depth} mod {p} needs {p}^{depth} rows, "
            f"over MAX_VERIFY_ROWS = {MAX_VERIFY_ROWS}")


@dataclass(frozen=True, eq=False)
class TransferSystem:
    """Window-transfer realization of the count identity for f^k mod p.

    states holds the nonzero accessible (d+1)-windows, sorted, one per row;
    maps is the (p, p, states) array of blocks.window_maps without the zero
    window: maps[r, j] sends each state to the index of its image under cut
    p*r+j, or to -1 for the zero window.  B_r has one unit entry per edge
    s -> maps[r, j, s] >= 0.  u masks the states whose first digit is
    nonzero; v (0/1) marks the windows of row 0.
    """

    f: FpPoly
    states: np.ndarray
    maps: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def trimmed(self) -> np.ndarray:
        """The states B acts on: all of them.

        Every state is reachable from v by construction, and perron refuses
        a system with a state that reaches no u, so no trim is made.
        """
        return self.states

    @cached_property
    def rep(self) -> LinearRepresentation:
        """The count identity as a linear representation: B_r, left u, right v."""
        return LinearRepresentation(self.f.p, self.apply, self.u.astype(np.int64), self.v)

    @cached_property
    def _edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        # per child row r: the source and target state of each edge of B_r
        edges = []
        for tables in self.maps:
            keep = tables >= 0
            src = np.broadcast_to(np.arange(tables.shape[1]), tables.shape)
            edges.append((src[keep], tables[keep]))
        return tuple(edges)

    @cached_property
    def _by_target(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # per child row r, then for B itself: the sources of the edges sorted
        # by target, each target that has in-edges, and where its run starts
        out = []
        for src, dst in (*self._edges, tuple(map(np.concatenate, zip(*self._edges)))):
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            starts = np.flatnonzero(np.diff(dst, prepend=-1))
            out.append((src[order], dst[starts], starts))
        return tuple(out)

    def apply(self, w: np.ndarray, eps: int | None = None) -> np.ndarray:
        """B.w, or B_eps.w, over the states; w may be a stack of rows.

        Each target sums its sources' entries in one run: the entries are
        gathered in target order and reduced run by run.
        """
        src, dst, starts = self._by_target[self.f.p if eps is None else eps]
        out = np.zeros_like(w)
        if len(src):  # reduceat refuses an empty list of runs
            out[..., dst] = np.add.reduceat(w[..., src], starts, axis=-1)
        return out


def build_transfer(f: FpPoly) -> TransferSystem:
    """The window maps of f mod p, read off its closure at length d+1."""
    if f.is_zero() or f.coeffs[0] == 0:
        raise ValueError("constant term must be nonzero (canonicalize first)")
    _check_edges(f.p, f.degree)
    level, maps = window_maps(f, f.degree + 1)
    # level[0] is the zero window, absorbing and never counted
    states = level[1:]
    return TransferSystem(
        f=f,
        states=states,
        maps=maps[:, :, 1:] - 1,
        u=states[:, 0] != 0,
        v=(states.sum(axis=1) == 1).astype(np.int64),
    )


def count_sequence(sys: TransferSystem, terms: int) -> list[int]:
    """r(p^k) = u.B^k.v for k < terms, exact."""
    rep = sys.rep
    return [int(w @ rep.left) for w in islice(rep.krylov(rep.right), terms)]


def _mismatch(f: FpPoly, kind: str, index, got, want) -> SpectralMismatchError:
    return SpectralMismatchError(
        f"count identity failed for {format_poly(f)}: {kind} {index} is {got}, want {want}")


def verify_counts(sys: TransferSystem, depth: int) -> None:
    """Check the count identities against brute-force row expansion.

    u.B^k.v must equal the cumulative nonzero count r(p^k) for all k <= depth,
    and the per-row digit products every row count q(m) for m < p^depth.  The
    first failure raises SpectralMismatchError naming the polynomial, the
    kind ("cumulative" or "row"), the index and both counts.  More than
    MAX_VERIFY_ROWS rows, or per-row vectors of more than MAX_VERIFY_CELLS
    entries in all, are refused with ValueError before anything is expanded.
    """
    f, p = sys.f, sys.f.p
    _check_depth(p, depth)
    n = len(sys.states)
    if p**depth * n > MAX_VERIFY_CELLS:
        raise ValueError(
            f"depth {depth} mod {p} needs {p}^{depth} vectors of {n} states, "
            f"over MAX_VERIFY_CELLS = {MAX_VERIFY_CELLS}")
    q = np.fromiter(map(np.count_nonzero, iter_rows(f, p**depth)), np.int64, p**depth)
    cum = np.cumsum(q)  # cum[m] = r(m + 1), the nonzero digits of rows 0..m
    for k, got in enumerate(count_sequence(sys, depth + 1)):
        if got != cum[p**k - 1]:
            raise _mismatch(f, "cumulative", k, got, cum[p**k - 1])
    rows = sys.rep.values(depth)  # row m's vector is B_(m_0)...B_(m_top).v
    bad = np.flatnonzero(rows != q)
    if len(bad):
        raise _mismatch(f, "row", bad[0], rows[bad[0]], q[bad[0]])


@dataclass(frozen=True)
class SpectralResult:
    """Certified Perron data of a transfer system.

    lambda is the spectral radius of B and the largest real root of
    recurrence, the certified minimal recurrence (ascending, monic) of the
    count sequence r(p^k).  interval = (lo, hi) brackets it by Collatz-Wielandt
    on a dyadic grid, collapsed to the root itself when minpoly, lambda's
    minimal polynomial (ascending, positive leading coefficient), is linear.
    """

    lam: float
    interval: tuple[Fraction, Fraction]
    recurrence: tuple[int, ...]
    dimension: float
    minpoly: tuple[int, ...]
    degree: int


def perron(sys: TransferSystem) -> SpectralResult:
    """Spectral radius of B, certified in one walk of the exact vectors B^k.v.

    The first 2n+2 counts give the minimal recurrence; x = B^K.v + B^(K+1).v
    at K = 2n gives the Collatz-Wielandt bracket min (Bx)_i/x_i <= rho(B) <=
    max (Bx)_i/x_i.  With every state on a v -> u path the counts grow like
    rho(B)^k, so by Pringsheim's theorem rho(B) is the largest real root of
    the recurrence, and its minpoly is the one factor that may vanish on the
    bracket.  K doubles while that factor is not linear and the bracket is
    wider than 1e-9, or while it holds several factors, up to
    2n * 2^_MAX_DOUBLINGS; past that, ArithmeticError.
    """
    n = len(sys.states)
    reach, size = sys.u.copy(), -1  # one backward fixpoint from u
    while size != reach.sum():
        size = reach.sum()
        for src, dst in sys._edges:
            reach[src[reach[dst]]] = True
    if not reach.all():
        raise ArithmeticError(f"{n - size} states of {format_poly(sys.f)} "
                              "reach no window with a nonzero first digit")
    counts, tail, K = [], deque(maxlen=3), 2 * n
    for k, w in enumerate(sys.rep.krylov(sys.v)):
        if k < 2 * n + 2:
            counts.append(int(w @ sys.rep.left))
        tail.append(w)
        if k < K + 2:
            continue
        if k == 2 * n + 2:
            rec = minimal_recurrence(counts, n)
            factors = factor_int_poly(rec)
        x, bx = tail[0] + tail[1], tail[1] + tail[2]
        if (x > 0).all():  # the bracket, rounded outward to the grid
            lo = Fraction(int((bx * _GRID // x).min()), _GRID)
            hi = Fraction(-int((-bx * _GRID // x).min()), _GRID)
            held = [g for g in factors if may_vanish(g, lo, hi)]
            if len(held) == 1 and (len(held[0]) == 2 or hi - lo <= _WIDTH):
                break
        if K >= 2 * n << _MAX_DOUBLINGS:
            raise ArithmeticError(f"no certified bracket for {format_poly(sys.f)} after {K} steps")
        K *= 2
    minpoly = tuple(held[0])  # factor_int_poly's factors have a positive leading coefficient
    if len(minpoly) == 2:
        lo = hi = Fraction(-minpoly[0], minpoly[1])
    lam = float((lo + hi) / 2)
    return SpectralResult(
        lam=lam,
        interval=(lo, hi),
        recurrence=tuple(rec),
        # log_p lambda, written so that p = 2 gives exactly log2 lambda
        dimension=math.log2(lam) / math.log2(sys.f.p),
        minpoly=minpoly,
        degree=len(minpoly) - 1,
    )


def spectrum(f: FpPoly, depth: int = 0) -> tuple[TransferSystem, SpectralResult]:
    """The transfer system of f and its certified spectrum.

    depth > 0 first checks the count identities up to p^depth rows and raises
    SpectralMismatchError on the first failure, since those are exact.
    """
    _check_depth(f.p, depth)
    system = build_transfer(f)
    if depth > 0:
        verify_counts(system, depth)
    return system, perron(system)


# ---------------------------------------------------------------------------
# Similarity classes over F2


def _exponents(f: FpPoly) -> tuple[int, ...]:
    return tuple(e for e, c in enumerate(f.coeffs) if c)


def _strip(f: FpPoly) -> FpPoly:
    """f divided by the largest power of x dividing it."""
    return FpPoly(f.p, f.coeffs[_exponents(f)[0]:])


def _root(f: FpPoly) -> FpPoly:
    """The c-th root of f for the largest c making f a c-th power."""
    parts = squarefree_parts(f)
    c = math.gcd(*(k for _, k in parts))
    if c <= 1:
        return f
    out = FpPoly.one(2)
    for part, k in parts:
        out = out * poly_pow(part, k // c)
    return out


def _desubstitute(f: FpPoly) -> FpPoly:
    """g with f = g(x^c) for the largest such c."""
    c = math.gcd(*_exponents(f))
    if c <= 1:
        return f
    return FpPoly(f.p, f.coeffs[::c])


def canonicalize(f: FpPoly) -> FpPoly:
    """Reduce f by the degree-nonincreasing moves, then pick its orientation.

    Strip (divide by x^c), root (c-th root) and desubstitute (x^c -> x) are
    applied until none changes f; the result h is reduced, and so is its
    reversal, since rev(g^c) = rev(g)^c and rev(g(x^c)) = rev(g)(x^c) when
    g(0) != 0.  So from h the only move that changes it is reversal, and the
    canonical form is whichever of h and h.reverse() has the smaller sorted
    exponent tuple.
    """
    if f.p != 2:
        raise ValueError(f"canonicalization is defined for p=2, got p={f.p}")
    if f.is_zero():
        raise ValueError("cannot canonicalize the zero polynomial")
    h = None
    while h != f:
        h, f = f, _desubstitute(_root(_strip(f)))
    return min(h, h.reverse(), key=_exponents)


def enumerate_classes(max_deg: int) -> list[FpPoly]:
    """The canonical polynomials of degree 1..max_deg, by (degree, exponents).

    These are the fixed points of canonicalize with f(0) = 1.  A canonical
    form is never larger than its reversal, so that cheap test runs first.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    _check_edges(2, max_deg)
    found = []
    for deg in range(1, max_deg + 1):
        for middle in range(1 << (deg - 1)):
            f = FpPoly(2, (1, *(middle >> i & 1 for i in range(deg - 1)), 1))
            if _exponents(f) <= _exponents(f.reverse()) and canonicalize(f) == f:
                found.append(f)
    return sorted(found, key=lambda f: (f.degree, _exponents(f)))


# ---------------------------------------------------------------------------
# Survey


def eigen_bound(deg_f: int) -> float:
    """Upper bound 4(1 - 1/2^(k+2))^(1/(k+1)) with k = ceil(log2 deg_f)."""
    if deg_f < 1:
        raise ValueError("deg_f must be >= 1")
    k = (deg_f - 1).bit_length()
    return 4.0 * (1.0 - 1.0 / (1 << (k + 2))) ** (1.0 / (k + 1))


@dataclass(frozen=True)
class SurveyRow:
    poly: FpPoly
    result: SpectralResult
    bound: float | None  # eigen_bound, for p = 2 and degree >= 1 only
    bound_ok: bool | None


def survey_row(f: FpPoly, result: SpectralResult) -> SurveyRow:
    """The report row of f, checked against eigen_bound when p = 2 and deg f >= 1.

    bound_ok is exact: the top of the certified bracket satisfies
    hi^(k+1) <= 4^(k+1) (1 - 2^-(k+2)), in rationals.
    """
    if f.p != 2 or f.degree < 1:
        return SurveyRow(f, result, None, None)
    k = (f.degree - 1).bit_length()
    ok = result.interval[1] ** (k + 1) <= 4 ** (k + 1) * (1 - Fraction(1, 1 << (k + 2)))
    return SurveyRow(f, result, eigen_bound(f.degree), ok)


@dataclass(frozen=True)
class SurveyResult:
    rows: tuple[SurveyRow, ...]
    lambda_max: tuple[tuple[int, float], ...]  # (k, max lambda over deg <= k)
    collisions: tuple[tuple[str, str], ...]


def survey(max_deg: int, depth: int = 0) -> SurveyResult:
    """Spectral survey of every similarity class of degree <= max_deg.

    depth > 0 re-verifies the count identities per class (see spectrum); 0 skips them.
    """
    _check_depth(2, depth)
    rows = [survey_row(f, spectrum(f, depth)[1]) for f in enumerate_classes(max_deg)]
    lambda_max = tuple(
        (k, max((row.result.lam for row in rows if row.poly.degree <= k), default=0.0))
        for k in range(1, max_deg + 1))
    # equal minpolys mean equal lambda: each is the largest real root of its minpoly
    collisions = tuple((format_poly(a.poly), format_poly(b.poly))
                       for i, a in enumerate(rows) for b in rows[i + 1 :]
                       if a.result.minpoly == b.result.minpoly)
    return SurveyResult(tuple(rows), lambda_max, collisions)


def survey_tsv(result: SurveyResult) -> str:
    lines = ["poly\tlambda\tdegree\tdimension\tbound_ok"]
    for row in result.rows:
        res, ok = row.result, {True: "true", False: "false", None: "n/a"}[row.bound_ok]
        lines.append(f"{format_poly(row.poly)}\t{res.lam:.6f}\t{res.degree}\t"
                     f"{res.dimension:.6f}\t{ok}")
    return "\n".join(lines) + "\n"
