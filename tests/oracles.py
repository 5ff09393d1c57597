"""Oracles kept out of the package: for the series tests, the hand-made closed
form of 1+x+x^2 mod 2 and the residual of the self-similarity equation on a
series prefix, which share nothing with the derivation in polypow.genfun; for
the similarity classes, the search over every move that canonicalize replaced;
for the transfer maps, one unbuffered scatter-add per edge; for the recursion
fit, one exact solve per trial threshold; for the generating function's
multiplier r(z), one exact solve of all its equations at once, and for its
b(z), the forcing polynomial P of the terms below the threshold; for the
block counts, the sorted candidates of the top level itself, and an
unquotiented closure over Python tuples; for the limit
law's projection row, the characteristic polynomial by Faddeev-LeVerrier,
and for the 1+x laws their closed form; for the linear-representation type,
plain Python-int matrices and sympy's exact nullspace; and a row of digits
as text.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd, lcm
from operator import mul

import numpy as np
import sympy

from polypow.blocks import (
    SHIFTS,
    InferenceError,
    RecursionSpec,
    _Closure,
    _first_diffs,
    _solve_exact,
    a_from_recursion_range,
    line_complexity_range,
)
from polypow.fpoly import format_poly
from polypow.genfun import Laurent, _multiplier
from polypow.linrep import _inside_unit_circle
from polypow.willson import _desubstitute, _exponents, _root, _strip


def series_1xx2(n_terms: int) -> list[int]:
    """First n_terms+1 line-complexity values of 1+x+x^2 mod 2.

    Numerator: 1 + 2z^3 + 2z^5 - z^6 + z^3 * sum_i (z^(2^i) - z^(3*2^i)),
    over (1-z^2)(1-z)^2.  The z^3 prefactor on the sum is required to
    reproduce the sequence (cross-checked against the inferred recursion);
    without it the expansion already fails at the second coefficient.
    """
    if n_terms < 0:
        raise ValueError("series length must be >= 0")
    num = [0] * (n_terms + 1)
    for e, c in ((0, 1), (3, 2), (5, 2), (6, -1)):
        if e <= n_terms:
            num[e] += c
    for mult, w in ((1, 1), (3, -1)):
        q = 1
        while 3 + mult * q <= n_terms:
            num[3 + mult * q] += w
            q *= 2
    for stride in (1, 1, 2):  # division by 1 - z^stride
        for n in range(stride, len(num)):
            num[n] += num[n - stride]
    return num


class InconclusiveError(RuntimeError):
    """Raised when a series prefix is too short to certify any residual bound."""


@dataclass(frozen=True)
class ResidualReport:
    """Residual polynomial prefix of r(z)g(z) - r(z^p)g(z^p) and its certification.

    residual holds coefficients up to the last nonzero one; degree_bound is
    that degree when it is small enough to certify (at most the top of the
    prefix's self-similar half), else None.
    """

    residual: tuple[int, ...]
    degree_bound: int | None
    checked_to: int


def functional_residual(series: list[int], r_poly: list[int], p: int) -> ResidualReport:
    """Exact residual of the base-p self-similarity equation on a series prefix.

    A degree bound D is certified only when every computed coefficient above D
    vanishes and D <= N//p, i.e. the vanishing has been observed across a full
    p-fold window.  A prefix shorter than p*(deg r + 1) cannot certify
    anything and raises InconclusiveError.
    """
    if not r_poly or r_poly[-1] == 0:
        raise ValueError("r(z) must have a nonzero leading coefficient")
    n = len(series) - 1
    if n < p * len(r_poly):
        raise InconclusiveError(
            f"series prefix of degree {n} cannot certify a residual for deg r = {len(r_poly) - 1}")
    rs = [0] * (n + 1)
    for i, ri in enumerate(r_poly):
        if ri:
            for j in range(0, n + 1 - i):
                rs[i + j] += ri * series[j]
    b = list(rs)
    for m in range(0, n // p + 1):
        b[p * m] -= rs[m]
    last = max((i for i, v in enumerate(b) if v), default=None)
    if last is None:
        return ResidualReport((0,), 0, n)
    bound = last if last <= n // p else None
    return ResidualReport(tuple(b[:last + 1]), bound, n)


def canonical_by_search(f):
    """The canonical form of f mod 2 by searching the closure of f under strip,
    root, desubstitute and reversal: among the polynomials in it that no move
    but reversal changes, the one whose sorted exponent tuple is smallest."""
    seen, todo, reduced = {f}, [f], []
    while todo:
        g = todo.pop()
        shrunk = {_strip(g), _root(g), _desubstitute(g)}
        if shrunk == {g}:
            reduced.append(g)
        for h in shrunk | {g.reverse()}:
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return min(reduced, key=_exponents)


def apply_by_scatter(sys, w, eps=None):
    """B.w, or B_eps.w, over the states of a transfer system, by one
    np.add.at per child row along its edges; w may be a stack of rows."""
    edges = sys._edges if eps is None else sys._edges[eps:eps + 1]
    out = np.zeros_like(w)
    for src, dst in edges:
        np.add.at(out, (..., dst), w[..., src])
    return out


def infer_by_thresholds(f, window=None):
    """blocks.infer_recursion with one exact solve of every equation at or
    above each trial threshold t0, accepted when its canonical solution is
    integral and at least two equations beyond the rank confirm it."""
    p = f.p
    n_data = window if window is not None else 4 * p + max(14, 3 * p)
    data = line_complexity_range(f, n_data)
    equations = []
    for m in range(min(len(data), p * (len(data) - SHIFTS + 1))):
        n, k = divmod(m, p)
        row = [-1] + [0] * (SHIFTS * p) + [data[m]]
        row[1 + k:1 + SHIFTS * p:p] = data[n:n + SHIFTS]
        equations.append(row)
    for t0 in range(3, 2 * p + 6):
        aug = equations[t0:]
        sol, rank = _solve_exact(aug, SHIFTS * p + 1)
        if sol is None or len(aug) < rank + 2 or any(v.denominator != 1 for v in sol):
            continue
        rows = []
        for k in range(p):
            row = [int(v) for v in sol[1 + k::p]]
            while row and row[-1] == 0:
                row.pop()
            rows.append(tuple(row))
        for threshold in range(t0, t0 + 4 * p):
            try:
                return RecursionSpec(p=p, rows=tuple(rows), constant=int(sol[0]),
                                     initials=tuple(data[:threshold]), threshold=threshold)
            except ValueError:
                continue
    raise InferenceError(
        f"no recursion a(pn+k) = sum_j c_kj a(n+j) - K with {SHIFTS} shifts fits "
        f"a(0..{n_data}) of {format_poly(f)} mod {p} from any threshold 3 to {2 * p + 5}")


def multiplier_by_solve(rec: RecursionSpec) -> Laurent:
    """genfun._multiplier by one exact solve: every equation of r(z^p) =
    C(z) r(z) over the support [min C/(p-1), max C/(p-1)], with r's top
    coefficient pinned to 1, made primitive with a positive top coefficient.

    The kernel has dimension at most 1: the ratio f of two solutions has
    f(z^p) = f(z), so its zeros and poles lie at 0 and infinity and f is a
    constant; so with r_hi pinned the rank is the width whenever r exists.
    """
    p = rec.p
    c_poly = {k - p * j: c for k, row in enumerate(rec.rows) for j, c in enumerate(row) if c}
    c_lo, c_hi = min(c_poly, default=0), max(c_poly, default=0)
    (lo, lo_rem), (hi, hi_rem) = divmod(c_lo, p - 1), divmod(c_hi, p - 1)
    if lo_rem or hi_rem:
        raise ArithmeticError(f"the support [{c_lo}/{p - 1}, {c_hi}/{p - 1}] of r is not integral")
    # per exponent e: sum_s C_s r_(e-s) - r_(e/p) = 0; r_hi's column moves
    # to the right-hand side with its sign flipped
    width, equations = hi - lo, {}
    for at in range(lo, hi + 1):
        col, sign = (at - lo, 1) if at < hi else (width, -1)
        for e, c in [(s + at, c) for s, c in c_poly.items()] + [(p * at, -1)]:
            equations.setdefault(e, [0] * (width + 1))[col] += sign * c
    sol, rank = _solve_exact(list(equations.values()), width)
    if sol is None or rank < width:
        raise ArithmeticError("no Laurent polynomial r(z) solves r(z^p) = C(z) r(z)")
    scale = lcm(*(v.denominator for v in sol))
    ints = [int(v * scale) for v in sol + [1]]
    g = gcd(*ints)
    return Laurent(lo, tuple(v // g for v in ints))


def closed_form_by_forcing(rec: RecursionSpec) -> tuple[Laurent, Laurent]:
    """genfun.closed_form with b = r (P - K/(1-z)) built term by term: the
    forcing P(z) = G(z) - C(z) G(z^p) + K/(1-z), which vanishes from the
    threshold on, from the rule at every index below it (negative ones
    included), and -K r/(1-z) from the prefix sums of r."""
    r = _multiplier(rec)
    p, reach = rec.p, max(len(row) for row in rec.rows)
    a = a_from_recursion_range(rec, max(rec.threshold + reach, -r.lo))
    b = defaultdict(int)
    for m in range(-p * reach, rec.threshold):
        # the rule is sum_j c_kj a(q+j) - K, so P_m is a(m) - rule from 0 on, -K - rule below
        rule = rec._rule(m, lambda i: a[i] if i >= 0 else 0)
        forcing = (a[m] if m >= 0 else -rec.constant) - rule
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


def count_by_sets(f, n_max):
    """[a(0), ..., a(n_max)] from an unquotiented closure over Python tuples.

    Row p*m+r of f is row m dilated by p times row r = f^r, so the n-window
    at p*t+dr+j of row p*m+r (dr = deg f^r, j < p) is read off the
    expansion of the s-window at t of row m, for s = (n + D + p - 2)//p + 1
    with D the largest dr.  At the largest length M with s >= M, where
    s = M, the accessible M-windows are the least set that holds row 0's
    windows and the cuts of its blocks' s-prefixes; each longer level is
    the cuts of its source level, and a(m) counts the distinct m-prefixes
    of the top level's windows.
    """
    p = f.p
    rows = [[1]]
    for _ in range(p - 1):
        row = [0] * (len(rows[-1]) + len(f.coeffs) - 1)
        for i, a in enumerate(rows[-1]):
            for k, c in enumerate(f.coeffs):
                row[i + k] = (row[i + k] + a * c) % p
        while row[-1] == 0:
            row.pop()
        rows.append(row)
    reach = max(len(row) for row in rows) - 1

    def source(n):
        return (n + reach + p - 2) // p + 1

    def cuts(blocks, n):
        windows = set()
        for b in blocks:
            for row in rows:
                expansion = [0] * (p * len(b) + len(row))
                for u, digit in enumerate(b):
                    for k, c in enumerate(row):
                        expansion[p * u + k] = (expansion[p * u + k] + digit * c) % p
                dr = len(row) - 1
                for j in range(p):
                    windows.add(tuple(expansion[dr + j:dr + j + n]))
        return windows

    # source(n) - n falls by at most 1 a step, so it is 0 at the largest
    # n where it is >= 0, and < 0 above
    fix_len = 1
    while source(fix_len + 1) >= fix_len + 1:
        fix_len += 1
    # row 0's windows: the zero block and a lone 1 at each place
    fix = {tuple(int(i == k) for i in range(fix_len)) for k in range(-1, fix_len)}
    while len(grown := fix | cuts({b[:source(fix_len)] for b in fix}, fix_len)) > len(fix):
        fix = grown

    def level(n):
        if n <= fix_len:
            return {b[:n] for b in fix}
        return cuts(level(source(n)), n)

    top = level(max(n_max, 1))
    return [len({w[:m] for w in top}) for m in range(n_max + 1)]


def count_by_candidates(f, n_max):
    """[a(0), ..., a(n_max)] from the candidates of level n_max itself: the
    p*p cuts of level s(n_max), one per orbit of the units, sorted with
    their repeats, and 1 plus `units` times the adjacent unequal ones that
    first differ before each length."""
    if n_max == 0:
        return [1]
    closure = _Closure(f)
    firsts = np.bincount(_first_diffs(*closure.candidates(n_max))[1:], minlength=n_max + 1)
    return [1, *(1 + closure.units * np.cumsum(firsts[:n_max])).tolist()]


def digits_to_text(digits) -> str:
    """A row of digits as text: one character a digit below 10, else commas."""
    digits = list(digits)
    if all(d < 10 for d in digits):
        return "".join(str(d) for d in digits)
    return ",".join(str(d) for d in digits)


def charpoly(m: list[list[int]]) -> list[int]:
    """det(tI - m) = t^n + c_1 t^(n-1) + ... + c_n of an integer matrix, as
    [1, c_1, ..., c_n].

    Faddeev-LeVerrier: M_1 = I and M_k = m M_(k-1) + c_(k-1) I give
    c_k = -tr(m M_k)/k, a division that is exact in the integers.
    """
    n = len(m)
    chi, prod = [1], [[0] * n for _ in range(n)]  # prod = m M_(k-1)
    for k in range(1, n + 1):
        for i in range(n):
            prod[i][i] += chi[-1]
        cols = list(zip(*prod))
        prod = [[sum(map(mul, row, col)) for col in cols] for row in m]
        chi.append(-sum(prod[i][i] for i in range(n)) // k)
    return chi


def projection_row_by_charpoly(rec: RecursionSpec) -> tuple[list[int], int]:
    """(r, D), r/D the first row of the p^2-eigenprojection of M_0, from
    chi = det(tI - M_0): with q = chi/(t - p^2), r = e_0 q(M_0) and
    D = q(p^2).  ArithmeticError unless p^2 is a simple root of chi and every
    other root is smaller in modulus (Schur-Cohn on q)."""
    p, rows = rec.p, rec.rows
    w = max(map(len, rows)) - 1  # V(n) = (a(n), ..., a(n+w), 1)
    while any(j // p + len(rows[j % p]) - 1 > w for j in range(w + 1)):
        w += 1
    m0 = [[0] * (w + 2) for _ in range(w + 2)]
    for j in range(w + 1):
        for i, c in enumerate(rows[j % p]):
            m0[j][j // p + i] = c
        m0[j][-1] = -rec.constant
    m0[-1][-1] = 1
    chi = charpoly(m0)
    lam, q = p * p, [1]  # q = chi / (t - lam), descending
    for c in chi[1:]:
        q.append(q[-1] * lam + c)
    row, denom = [0] * (w + 2), 0
    for c in q[:-1]:  # Horner: row = e_0 q(M_0), denom = q(lam)
        row = [sum(map(mul, row, col)) for col in zip(*m0)]
        row[0] += c
        denom = denom * lam + c
    deg = len(q) - 2
    if q[-1] or not denom or not _inside_unit_circle(
            [c * lam ** (deg - i) for i, c in enumerate(q[:-1])]):
        raise ArithmeticError(f"p^2 = {lam} is not a simple dominant root of {chi}")
    return row, denom


def _vertex_piece(lo, hi, a, vertex, floor_value):
    # a*(x - vertex)^2 + floor expanded to monomial coefficients
    a, vertex, floor_value = F(a), F(vertex), F(floor_value)
    return (F(lo), F(hi), a, -2 * a * vertex, a * vertex * vertex + floor_value)


def closed_form_1px(p):
    """(lo, hi, a, b, c) pieces of the 1+x mod p law in closed form."""
    if p == 2:
        # degree-1 base case: a(n) = n^2 - n + 2, so the ratio tends to 1
        return [(F(1, 2), F(1), F(0), F(0), F(1))]
    pieces = []
    if p == 5:
        pieces.append((F(1, 5), F(1, 3), F(0), F(20), F(8)))
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
    return pieces


def mat_vec(m, v):
    return [sum(map(mul, row, v)) for row in m]


def dense_values(matrices, left, right, depth):
    """left.B_(m_0)...B_(m_(k-1)).right for every m < p^depth, p =
    len(matrices) and B_r = matrices[r], by one matrix-vector product per
    base-p digit m_i of m, the top digit first."""
    p, out = len(matrices), []
    for m in range(p**depth):
        digits = []
        while m:
            m, r = divmod(m, p)
            digits.append(r)
        w = list(right)
        for r in reversed(digits):
            w = mat_vec(matrices[r], w)
        out.append(sum(map(mul, left, w)))
    return out


def dense_krylov(b, x, terms):
    """[x, b.x, ..., b^(terms-1).x], one matrix-vector product each."""
    out = [list(x)]
    while len(out) < terms:
        out.append(mat_vec(b, out[-1]))
    return out


def matrix_powers(b, terms):
    """[I, b, ..., b^(terms-1)], each flattened row by row."""
    n = len(b)
    power, out = [[int(i == j) for j in range(n)] for i in range(n)], []
    while len(out) < terms:
        out.append([c for row in power for c in row])
        power = [[sum(map(mul, row, col)) for col in zip(*power)] for row in b]
    return out


def minimal_polynomial_by_nullspace(powers):
    """The monic c (ascending) of least degree with sum c_i powers[i] = 0,
    for flat integer vectors powers[0], powers[1], ...: the first of them in
    the span of those before it, found by sympy's exact nullspace."""
    for k in range(1, len(powers) + 1):
        null = sympy.Matrix(list(zip(*powers[:k]))).nullspace()
        if null:
            return [int(c / null[0][-1]) for c in null[0]]
    raise ValueError("no power lies in the span of those before it")
