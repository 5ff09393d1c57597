"""Transfer maps for the nonzero-coefficient counts of f^k mod 2.

A state is a length d+1 window of a coefficient row.  Doubling the row index
and choosing one of two child anchors gives four self-maps of the state set;
summing the two anchor choices per child parity yields count matrices B0, B1
whose total B satisfies u.B^k.v = r(2^k), the number of nonzero coefficients
in rows 0..2^k-1.  The matrices are never stored: the four maps are the only
representation, and B acts on vectors over the trimmed states as scatter-adds
along them.

The dominant growth rate lambda (so the fractal dimension log2 lambda) is the
largest real root of the minimal recurrence of the exact sequence r(2^k),
found by Berlekamp-Massey, certified over the integers on 2n+2 terms for n
trimmed states, and isolated exactly among all real roots.  Its minimal
polynomial is the irreducible factor of that recurrence whose root the
bracket holds.  spectrum runs the whole pipeline for one polynomial: build
the maps, optionally check the count identities, certify lambda and factor.

The window has d+1 digits for f of degree d, so there are 2^(d+1) states;
MAX_TRANSFER_DEGREE bounds d before anything is allocated.

Polynomials that differ by the similarity moves (shifts by x^c, reversal,
substitution x -> x^c, c-th powers) share lambda, so the survey runs over
canonical representatives only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._zzpoly import (
    factor_int_poly,
    largest_real_root,
    minimal_recurrence,
    sign_at,
    squarefree_part,
)
from .fpoly import CountTable, FpPoly, format_poly

# 2^13 window states: the build peaks near 70 MB here and 150 MB at degree 16.
MAX_TRANSFER_DEGREE = 12


class SpectralMismatchError(ArithmeticError):
    """Exact eigenvalue and empirical count growth disagree."""


@dataclass(frozen=True)
class CountMismatch:
    """Falsy record of the first count identity that failed."""

    kind: str  # "cumulative" (power index k) or "row" (row index m)
    index: int
    got: int
    want: int

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class TransferSystem:
    """Window-transfer realization of the count identity for f^k mod 2.

    states lists every nonzero window bitmask (bit j = digit a_{t+j}, so bit 0
    is the window's first digit); maps[2*eps+delta] sends each mask to its
    child window, 0 included as the absorbing zero window.  B_eps has one unit
    entry per edge s -> maps[2*eps+delta][s] between nonzero windows; u and v
    live over all of states.  trimmed is the sub-multiset that carries every
    supp(v) -> supp(u) path, and apply and the trimmed_* views restrict to it.
    """

    f: FpPoly
    window: int
    states: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    trimmed: tuple[int, ...]

    def state_string(self, mask: int) -> str:
        return "".join("1" if mask >> j & 1 else "0" for j in range(self.window))

    @cached_property
    def _edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        # per map: the trimmed indices of each edge's source and target, for
        # the edges that stay inside the trimmed states
        trimmed = np.array(self.trimmed, dtype=np.intp)
        index = np.full(len(self.states) + 1, -1, dtype=np.intp)
        index[trimmed] = np.arange(len(trimmed))
        edges = []
        for table in self.maps:
            dst = index[np.array(table, dtype=np.intp)[trimmed]]
            src = np.flatnonzero(dst >= 0)
            edges.append((src, dst[src]))
        return tuple(edges)

    def apply(self, w: np.ndarray, eps: int | None = None) -> np.ndarray:
        """B.w, or B_eps.w, over the trimmed states; w may be a stack of rows."""
        edges = self._edges if eps is None else self._edges[2 * eps : 2 * eps + 2]
        out = np.zeros_like(w)
        for src, dst in edges:
            np.add.at(out, (..., dst), w[..., src])
        return out

    @cached_property
    def trimmed_u(self) -> tuple[int, ...]:
        return tuple(1 if s & 1 else 0 for s in self.trimmed)

    @cached_property
    def trimmed_v(self) -> tuple[int, ...]:
        return tuple(self.v[self.states.index(s)] for s in self.trimmed)


def build_transfer(f: FpPoly) -> TransferSystem:
    """Construct the four window maps for f mod 2 and trim them."""
    if f.p != 2:
        raise ValueError(f"transfer construction requires p=2, got p={f.p}")
    if f.is_zero() or f.coeffs[0] != 1:
        raise ValueError("constant term must be 1 (canonicalize first)")
    d = f.degree
    if d > MAX_TRANSFER_DEGREE:
        raise ValueError(
            f"transfer degree {d} exceeds MAX_TRANSFER_DEGREE = {MAX_TRANSFER_DEGREE}")
    lwin = d + 1
    coeff_rows = ((1,), f.coeffs)  # child row parity 2m+eps picks row of 1 or of f
    size = 1 << lwin
    maps = []
    for eps in (0, 1):
        for delta in (0, 1):
            # Contribution of parent digit j to the child window, as a bitmask
            # over child positions r; XOR of single-digit masks by linearity.
            digit_masks = []
            for j in range(lwin):
                m = 0
                for r in range(lwin):
                    idx = d - 1 + delta + r - 2 * j
                    if 0 <= idx < len(coeff_rows[eps]) and coeff_rows[eps][idx]:
                        m |= 1 << r
                digit_masks.append(m)
            table = [0] * size
            for s in range(1, size):
                low = (s & -s).bit_length() - 1
                table[s] = table[s & (s - 1)] ^ digit_masks[low]
            maps.append(tuple(table))

    u = tuple(1 if s & 1 else 0 for s in range(1, size))
    v = tuple(1 if s & (s - 1) == 0 else 0 for s in range(1, size))

    forward = {s for s in range(1, size) if s & (s - 1) == 0}
    queue = list(forward)
    while queue:
        s = queue.pop()
        for table in maps:
            t = table[s]
            if t and t not in forward:
                forward.add(t)
                queue.append(t)
    parents = {s: set() for s in range(1, size)}
    for s in range(1, size):
        for table in maps:
            t = table[s]
            if t:
                parents[t].add(s)
    backward = {s for s in range(1, size) if s & 1}
    queue = list(backward)
    while queue:
        s = queue.pop()
        for q in parents[s]:
            if q not in backward:
                backward.add(q)
                queue.append(q)

    return TransferSystem(
        f=f,
        window=lwin,
        states=tuple(range(1, size)),
        maps=tuple(maps),
        u=u,
        v=v,
        trimmed=tuple(sorted(forward & backward)),
    )


def count_sequence(sys: TransferSystem, terms: int) -> list[int]:
    """r(2^k) = u.B^k.v for k < terms, exact, over the trimmed states."""
    u = np.array(sys.trimmed_u, dtype=bool)
    w = np.array(sys.trimmed_v, dtype=object)
    out = []
    for _ in range(terms):
        out.append(int(w[u].sum()))
        w = sys.apply(w)
    return out


def verify_counts(sys: TransferSystem, depth: int):
    """Check the count identities against brute-force row expansion.

    Returns True when u.B^k.v matches the cumulative nonzero count r(2^k) for
    all k <= depth and the per-row digit products match every row count q(m)
    for m < 2^depth; otherwise returns a falsy CountMismatch for the first
    failure.
    """
    table = CountTable.from_rows(sys.f, 1 << depth)
    for k, got in enumerate(count_sequence(sys, depth + 1)):
        want = table.r_cumulative[1 << k]
        if got != want:
            return CountMismatch("cumulative", k, got, want)

    # row m has vector B_{m&1} times that of row m>>1, so the rows 2^l..2^(l+1)-1
    # come from the previous block in one batch; row 0 carries v itself
    vecs = np.array([sys.trimmed_v], dtype=np.int64)
    vecs = np.concatenate([vecs, sys.apply(vecs, 1)])
    while len(vecs) < 1 << depth:
        block = vecs[len(vecs) // 2 :]
        children = np.stack([sys.apply(block, 0), sys.apply(block, 1)], axis=1)
        vecs = np.concatenate([vecs, children.reshape(-1, vecs.shape[1])])
    rows = vecs[:, np.array(sys.trimmed_u, dtype=bool)].sum(axis=1)
    for m in range(1 << depth):
        got = int(rows[m])
        want = table.q_total[m]
        if got != want:
            return CountMismatch("row", m, got, want)
    return True


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenvalue data of a transfer system.

    recurrence is the certified minimal recurrence (ascending, monic) of the
    count sequence r(2^k); lambda is its largest real root, and minpoly
    (ascending, positive leading coefficient) its minimal polynomial.
    """

    lam: float
    interval: tuple[Fraction, Fraction]
    recurrence: tuple[int, ...]
    dimension: float
    minpoly: tuple[int, ...]
    degree: int


def _ratio_check(sys: TransferSystem, counts: list[int], lam: float):
    ratio = (counts[50] / counts[40]) ** (1 / 10)
    if abs(ratio - lam) <= 0.02 * lam:
        return
    # Reducible systems can drag a polynomial factor along the dominant
    # growth; push the anchor deep enough to squeeze it out.
    counts = count_sequence(sys, 251)
    ratio = (counts[250] / counts[200]) ** (1 / 50)
    if abs(ratio - lam) <= 0.01 * lam:
        return
    raise SpectralMismatchError(
        f"root {lam} vs count growth {ratio} for {format_poly(sys.f)}"
    )


def perron(sys: TransferSystem) -> SpectralResult:
    """Largest real root of the certified count recurrence, ratio cross-checked."""
    n = len(sys.trimmed)
    if not n:
        raise ValueError("trimmed system is empty")
    # 2n+2 terms certify the recurrence; the ratio check reads up to term 50
    counts = count_sequence(sys, max(2 * n + 2, 51))
    rec = minimal_recurrence(counts, n)
    sqf = squarefree_part(rec)
    lo, hi = largest_real_root(sqf)
    lam = float((lo + hi) / 2)
    _ratio_check(sys, counts, lam)
    minpoly = minpoly_of_lambda(sqf, (lo, hi))
    return SpectralResult(
        lam=lam,
        interval=(lo, hi),
        recurrence=tuple(rec),
        dimension=math.log2(lam),
        minpoly=minpoly,
        degree=len(minpoly) - 1,
    )


def minpoly_of_lambda(c: list[int], interval: tuple[Fraction, Fraction]) -> tuple[int, ...]:
    """The irreducible factor of the squarefree c with a root in interval.

    The bracket isolates lambda among the roots of c, so exactly one factor
    changes sign across it (or vanishes at an exact rational endpoint).
    """
    lo, hi = interval
    matches = [f for f in factor_int_poly(c) if sign_at(f, lo) * sign_at(f, hi) <= 0]
    if len(matches) != 1:
        raise ArithmeticError("could not attribute the dominant root to a factor")
    m = matches[0]
    return tuple(m) if m[-1] > 0 else tuple(-v for v in m)


def spectrum(f: FpPoly, depth: int = 0) -> tuple[TransferSystem, SpectralResult]:
    """The transfer system of f and its certified spectrum.

    depth > 0 first checks the count identities up to 2^depth rows and raises
    SpectralMismatchError on the first failure, since those are exact.
    """
    system = build_transfer(f)
    if depth > 0:
        ok = verify_counts(system, depth)
        if ok is not True:
            raise SpectralMismatchError(f"count identity failed for {format_poly(f)}: {ok}")
    return system, perron(system)


# ---------------------------------------------------------------------------
# Similarity classes over F2


def _f2_divmod(a: int, b: int) -> tuple[int, int]:
    db = b.bit_length() - 1
    q = 0
    while a and a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _f2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _f2_factor(mask: int) -> dict[int, int]:
    """Irreducible factorization of a nonzero F2 polynomial by trial division."""
    factors: dict[int, int] = {}
    cand = 2
    while cand.bit_length() <= (mask.bit_length() + 1) // 2:
        q, r = _f2_divmod(mask, cand)
        while r == 0 and mask.bit_length() > 1:
            factors[cand] = factors.get(cand, 0) + 1
            mask = q
            q, r = _f2_divmod(mask, cand)
        cand += 1
    if mask.bit_length() > 1:
        factors[mask] = factors.get(mask, 0) + 1
    return factors


def _exponents(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _strip(mask: int) -> int:
    while mask and not mask & 1:
        mask >>= 1
    return mask


def _root(mask: int) -> int:
    factors = _f2_factor(mask)
    if not factors:
        return mask
    g = math.gcd(*factors.values()) if len(factors) > 1 else next(iter(factors.values()))
    if g <= 1:
        return mask
    out = 1
    for f, mult in factors.items():
        for _ in range(mult // g):
            out = _f2_mul(out, f)
    return out


def _desubstitute(mask: int) -> int:
    exps = [e for e in _exponents(mask) if e]
    if not exps:
        return mask
    g = math.gcd(*exps) if len(exps) > 1 else exps[0]
    if g <= 1:
        return mask
    out = 0
    for e in _exponents(mask):
        out |= 1 << (e // g)
    return out


def _reverse(mask: int) -> int:
    out = 0
    top = mask.bit_length() - 1
    for e in _exponents(mask):
        out |= 1 << (top - e)
    return out


_REDUCTIONS = (
    ("strip", _strip),
    ("root", _root),
    ("desubstitute", _desubstitute),
    ("reverse", _reverse),
)


@dataclass(frozen=True)
class SimilarityClass:
    canonical: FpPoly
    witnesses: tuple[str, ...]


def canonicalize(f: FpPoly) -> SimilarityClass:
    """Reduce f to the least fixpoint of the degree-nonincreasing moves.

    The whole reduction closure is searched; among the polynomials no move
    can shrink, the one whose sorted exponent tuple is smallest wins.  The
    witnesses name the moves along one path from f to it.
    """
    if f.p != 2:
        raise ValueError(f"canonicalization is defined for p=2, got p={f.p}")
    if f.is_zero():
        raise ValueError("cannot canonicalize the zero polynomial")
    start = 0
    for e, c in enumerate(f.coeffs):
        if c:
            start |= 1 << e
    seen = {start: ()}
    queue = [start]
    while queue:
        mask = queue.pop(0)
        for label, move in _REDUCTIONS:
            nxt = move(mask)
            if nxt != mask and nxt not in seen:
                seen[nxt] = seen[mask] + (label,)
                queue.append(nxt)
    fixpoints = [
        m for m in seen if all(move(m) == m for _, move in _REDUCTIONS[:3])
    ]
    best = min(fixpoints, key=_exponents)
    coeffs = [1 if best >> i & 1 else 0 for i in range(best.bit_length())]
    return SimilarityClass(FpPoly.make(2, coeffs), seen[best])


def enumerate_classes(max_deg: int) -> list[SimilarityClass]:
    """All canonical representatives of degree 1..max_deg, deduplicated."""
    if not 1 <= max_deg <= MAX_TRANSFER_DEGREE:
        raise ValueError(f"max_deg must be in 1..MAX_TRANSFER_DEGREE = {MAX_TRANSFER_DEGREE}")
    found: dict[tuple[int, ...], SimilarityClass] = {}
    for deg in range(1, max_deg + 1):
        base = (1 << deg) | 1
        for middle in range(1 << max(deg - 1, 0)):
            mask = base | (middle << 1)
            cls = canonicalize(FpPoly.make(2, [mask >> i & 1 for i in range(deg + 1)]))
            found.setdefault(cls.canonical.coeffs, SimilarityClass(cls.canonical, ()))
    return sorted(
        found.values(),
        key=lambda c: (c.canonical.degree, _exponents(sum(1 << e for e, x in enumerate(c.canonical.coeffs) if x))),
    )


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
    bound: float
    bound_ok: bool


@dataclass(frozen=True)
class SurveyResult:
    rows: tuple[SurveyRow, ...]
    lambda_max: tuple[tuple[int, float], ...]  # (k, max lambda over deg <= k)
    collisions: tuple[tuple[str, str], ...]


def survey(max_deg: int, depth: int = 10) -> SurveyResult:
    """Spectral survey of every similarity class of degree <= max_deg.

    depth > 0 re-verifies the count identities per class (see spectrum).
    """
    rows = []
    for cls in enumerate_classes(max_deg):
        _, res = spectrum(cls.canonical, depth)
        bound = eigen_bound(cls.canonical.degree)
        rows.append(
            SurveyRow(
                poly=cls.canonical,
                result=res,
                bound=bound,
                bound_ok=res.lam <= bound + 1e-9,
            )
        )
    lambda_max = []
    best = 0.0
    for k in range(1, max_deg + 1):
        for row in rows:
            if row.poly.degree <= k:
                best = max(best, row.result.lam)
        lambda_max.append((k, best))
    collisions = []
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            if abs(a.result.lam - b.result.lam) <= 1e-9:
                collisions.append((format_poly(a.poly), format_poly(b.poly)))
    return SurveyResult(tuple(rows), tuple(lambda_max), tuple(collisions))


def survey_tsv(result: SurveyResult) -> str:
    lines = ["poly\tlambda\tdegree\tdimension\tbound_ok"]
    for row in result.rows:
        res = row.result
        lines.append(
            "\t".join(
                (
                    format_poly(row.poly),
                    f"{res.lam:.6f}",
                    str(res.degree),
                    f"{res.dimension:.6f}",
                    "true" if row.bound_ok else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"
