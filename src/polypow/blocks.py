"""Accessible blocks and line complexity of the row family of f^k mod p.

A length-n block is accessible if it occurs as a window of some row embedded
in a bi-infinite zero background.  a(n) counts distinct accessible n-blocks;
a(0) = 1 for the empty block.  One window engine gives the blocks of a finite
row horizon (the scan) and exact a(n); alongside sit the closed recursion for
f = 1 + x, a generic base-p recursion engine, and an exact recursion solver.

The engine rests on f^(pm+r) = f(x^p)^m * f^r mod p: every n-window of row
pm+r is the image of a short window of row m under one of p*p local maps
(dilate by p, convolve with row r, slice at one of p phases).  So the blocks
of rows 0..R follow from the windows of row 0 in log_p R map steps, and at
the self-referencing length the same steps grow to a least fixpoint: the
accessible sets, exact at every length with no row horizon or stabilization
heuristic.  Discoveries in a plain scan recur near rows p*k+r for earlier
discovery rows k, which makes any bounded-lookahead stopping rule unsound.
At a length that is its own source, window_maps also gives, per map, the
image of every block by index: the transfer maps of the nonzero counts.

Memory: each level is one packed matrix, the sorted distinct blocks as uint8
rows.  Only the fixpoint level stays; a count builds one level up its source
chain, and that sorted level counts every shorter length too.
A step that would hold more than MAX_CELLS digits raises ClosureSizeError
before allocating.  Every call builds its own closure; none is cached.
Digits are bytes, so p > 255 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .fpoly import FpPoly, check_prime, format_poly, iter_rows

SCAN_CAP = 2**14
MAX_CELLS = 2**28
MAX_RECURSION_PRIME = 2**20  # recursion_1px builds p rows: about 2 s and 255 MB at the cap


class InferenceError(RuntimeError):
    """Raised when computed data admits no unique recursion of the template."""


class ClosureSizeError(RuntimeError):
    """Raised when one step of the maps would hold more than MAX_CELLS digits."""


def _row0_blocks(n: int) -> np.ndarray:
    """The sorted n-windows of row 0, a lone 1 in zeros: 0...0, 0...01, ..., 10...0."""
    _check_cells(n * (n + 1), f"the {n}-windows of row 0")
    return np.eye(n + 1, n, dtype=np.uint8)[::-1]


def _packed(mat: np.ndarray) -> np.ndarray:
    """Each row of a uint8 matrix as one void scalar, ordered as its digits."""
    return np.ascontiguousarray(mat).view(np.dtype((np.void, mat.shape[1]))).ravel()


def _unique_rows(mat: np.ndarray) -> np.ndarray:
    """The distinct rows of a uint8 matrix, in lexicographic order."""
    return np.unique(_packed(mat)).view(np.uint8).reshape(-1, mat.shape[1])


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ClosureSizeError(f"{what} would hold {cells} digits, over the cap of {MAX_CELLS}")


def scan_accessible(f: FpPoly, n: int, max_row: int = SCAN_CAP) -> np.ndarray:
    """All n-blocks seen in rows 0..max_row (a finite-horizon view).

    The blocks are the rows of one uint8 matrix, sorted and distinct; n = 0
    gives the empty block, one row of no digits.
    """
    if n < 0:
        raise ValueError("block length must be >= 0")
    if n == 0:
        return np.zeros((1, 0), np.uint8)
    return _Closure(f).horizon(n, max_row)


# ------------------------------------------------------------- closure ----

ROW_CHUNK = 2**14  # adjacent row pairs _first_diffs compares at once


def _first_diffs(level: np.ndarray) -> np.ndarray:
    """The first differing column of each adjacent row pair of a sorted, distinct matrix."""
    out = np.empty(len(level) - 1, np.intp)
    for lo in range(0, len(out), ROW_CHUNK):
        pairs = level[lo:lo + ROW_CHUNK + 1]
        out[lo:lo + ROW_CHUNK] = np.argmax(pairs[1:] != pairs[:-1], axis=1)
    return out


class _Closure:
    """Accessible-block sets of one polynomial, level by level.

    Level m is the sorted, duplicate-free uint8 matrix of the accessible
    m-blocks, one per row.  Level lc, the least fixpoint of the maps, is kept;
    a shorter level is cut from its prefixes, and a longer level m is the
    maps applied to level _source_len(m) < m, so level n needs only the chain
    n -> _source_len(n) -> ... -> lc, each link dropped once the next is cut.
    """

    def __init__(self, f: FpPoly):
        if f.is_zero():
            raise ValueError("accessible blocks of the zero polynomial are not defined")
        self.p = f.p
        self.d = len(f.coeffs) - 1
        self.rows = list(iter_rows(f, f.p))
        # an expanded digit sums at most this many products of two digits
        terms = (max(len(rr) for rr in self.rows) - 1) // self.p + 1
        self.dtype = np.min_scalar_type((self.p - 1) ** 2 * terms)
        # _source_len(m) >= m exactly when m <= d + 2, with equality at d + 2
        self.lc = self.d + 2

    def _source_len(self, m: int) -> int:
        # longest row-m' patch a length-m window of row p*m'+r can touch
        return (m + self.d * (self.p - 1) + self.p - 2) // self.p + 1

    def horizon(self, n: int, max_row: int) -> np.ndarray:
        """The n-blocks (n >= 1) of rows 0..max_row, one per matrix row.

        Row r cuts its rows pm+r <= q from the blocks of rows 0..q//p if
        r <= q%p, else of rows 0..q//p-1, so each step keeps two horizons;
        the last step needs only the first.
        """
        chain = [(n, max_row)]
        while chain[-1][1] > 0:
            m, q = chain[-1]
            chain.append((self._source_len(m), q // self.p))
        m, q = chain.pop()
        short = np.zeros((0, m), np.uint8)  # the blocks of rows 0..q-1
        full = _row0_blocks(m) if q == 0 else short
        while chain:
            m, q = chain.pop()
            e_full, e_short = self._expand(full), self._expand(short)
            s = q % self.p
            full = self._apply_maps(e_full[:s + 1] + e_short[s + 1:], m)
            if chain:
                short = self._apply_maps(e_full[:s] + e_short[s:], m)
        return full

    @cached_property
    def fixpoint(self) -> np.ndarray:
        """The accessible lc-blocks: the maps take those of rows 0..R to the
        larger set of rows 0..pR+p-1, grown from row 0 until it stops.  The
        image of a set is the union of its blocks' images and contains the
        set, so each round expands only the blocks the last one added."""
        fix = new = _row0_blocks(self.lc)
        while len(new):
            grown = self._apply_maps(self._expand(new), self.lc)
            keys, found = _packed(fix), _packed(grown)
            at = np.searchsorted(keys, found)
            fresh = keys[np.minimum(at, len(keys) - 1)] != found
            new = grown[fresh]
            _check_cells((len(fix) + len(new)) * self.lc, "the fixpoint")
            fix = np.insert(fix, at[fresh], new, axis=0)
        return fix

    def _expand(self, src: np.ndarray) -> list[np.ndarray]:
        """Per row r, each source block dilated by p and convolved with row r."""
        digits = src.astype(self.dtype)
        span = self.p * (src.shape[1] - 1) + 1
        widths = [span + len(rr) - 1 + self.p for rr in self.rows]
        _check_cells(len(src) * sum(widths), f"the expansion of {len(src)} blocks")
        out = []
        for rr, width in zip(self.rows, widths):
            e = np.zeros((len(src), width), dtype=self.dtype)
            for y, coef in enumerate(rr.tolist()):
                if coef:
                    e[:, y:y + span:self.p] += coef * digits
            out.append((e % self.p).astype(np.uint8, copy=False))
        return out

    def _cuts(self, expanded: list[np.ndarray], n: int) -> list[np.ndarray]:
        """The p*p cuts of the expanded source level: per row r, p n-windows.

        Cut p*r+j sends the source block at position t of row m to the
        n-window at p*t+dr+j of row p*m+r, where dr is the degree of row r.
        """
        cuts = []
        for rr, e in zip(self.rows, expanded):
            dr = len(rr) - 1
            # offsets dr..dr+p-1 realize every alignment of a true window
            # while staying inside the patch the source block determines
            cuts.extend(e[:, o:o + n] for o in range(dr, dr + self.p))
        return cuts

    def _apply_maps(self, expanded: list[np.ndarray], n: int) -> np.ndarray:
        """The level-n blocks that the expanded source level yields."""
        _check_cells(self.p * n * sum(len(e) for e in expanded), f"the candidate {n}-blocks")
        return _unique_rows(np.concatenate(self._cuts(expanded, n)))

    def level(self, n: int) -> np.ndarray:
        """The accessible n-blocks (n >= 1), one per matrix row."""
        if n > self.lc:
            return self._apply_maps(self._expand(self.level(self._source_len(n))), n)
        fix = self.fixpoint
        return fix[np.r_[True, _first_diffs(fix) < n], :n]


def window_maps(f: FpPoly, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted accessible n-blocks and, per cut, the index of each one's image.

    n must be its own source length (d+1 or d+2 for f of degree d), so that
    every cut of an accessible n-block is again one.  Array p*r+j holds, for
    each block, the index of its image under cut p*r+j (see _Closure._cuts).
    """
    closure = _Closure(f)
    if closure._source_len(n) != n:
        raise ValueError(f"window length {n} is not its own source length")
    level = closure.level(n)
    keys = _packed(level)
    cuts = closure._cuts(closure._expand(level), n)
    return level, [np.searchsorted(keys, _packed(cut)) for cut in cuts]


def line_complexity(f: FpPoly, n: int) -> int:
    """a(n): exact count of accessible n-blocks via the self-similar closure."""
    if n < 0:
        raise ValueError("block length must be >= 0")
    return line_complexity_range(f, n)[n]


def line_complexity_range(f: FpPoly, n_max: int) -> list[int]:
    """[a(0), ..., a(n_max)] from the one closure level n_max.

    A window extends one digit right inside its row, so the m-blocks are the
    distinct m-prefixes of the sorted n_max-blocks, and a(m) is 1 plus the
    adjacent rows that first differ before column m.
    """
    if n_max < 0:
        raise ValueError("block length must be >= 0")
    closure = _Closure(f)
    if n_max == 0:
        return [1]
    firsts = np.bincount(_first_diffs(closure.level(n_max)), minlength=n_max)
    return [1, *(1 + np.cumsum(firsts)).tolist()]


# ---------------------------------------------------------------- 1 + x ----

def a_1px(p: int, n: int) -> int:
    """Line complexity of 1+x mod p via its closed base-p recursion."""
    return a_from_recursion(recursion_1px(p), n)


def verify_ab_equivalence(p: int, n_max: int) -> bool:
    """True iff the difference form generates the same sequence as a_1px up to n_max."""
    if n_max < 4:
        raise ValueError("comparison window must reach past the starting values (>= 4)")
    rec = recursion_1px(p)
    b = list(rec.initials)
    for m in range(3, n_max):
        n, k = divmod(m, p)
        b.append(b[m] + (p - k) * (b[n + 1] - b[n]) + k * (b[n + 2] - b[n + 1]))
    return b == a_from_recursion_range(rec, n_max)


# ------------------------------------------------- generic recursion spec ----

@dataclass(frozen=True)
class RecursionSpec:
    """Base-p recursion a(pn+k) = sum_j rows[k][j] * a(n+j) - constant.

    Valid for indices >= threshold; initials supply a(0..len-1) and must be
    reproduced by the recursion wherever both apply.
    """

    p: int
    rows: tuple[tuple[int, ...], ...]
    constant: int
    initials: tuple[int, ...]
    threshold: int

    def __post_init__(self):
        check_prime(self.p)
        if len(self.rows) != self.p:
            raise ValueError("need one coefficient row per residue class")
        if not (0 < self.threshold <= len(self.initials)):
            raise ValueError("threshold must be covered by initials")
        if self.threshold < max((len(r) for r in self.rows), default=0):
            raise ValueError("threshold below the recursion's forward reach")
        for k, row in enumerate(self.rows):
            # the first index m >= threshold with m = k mod p
            m = self.threshold + (k - self.threshold) % self.p
            # descent: every referenced index must sit strictly below m
            for j, c in enumerate(row):
                if c and m // self.p + j >= m:
                    raise ValueError(f"row {k} references a(n+{j}) at or above m={m}")
        for m in range(self.threshold, len(self.initials)):
            # apply the rule to the initials: a_from_recursion would
            # short-circuit to the very value being checked
            if self._rule(m, self.initials.__getitem__) != self.initials[m]:
                raise ValueError(f"recursion contradicts supplied value at {m}")

    def _rule(self, m: int, a) -> int:
        """The right-hand side for a(m), reading earlier values through a."""
        q, k = divmod(m, self.p)
        total = -self.constant
        for j, c in enumerate(self.rows[k]):
            if c:
                total += c * a(q + j)
        return total


def a_from_recursion(rec: RecursionSpec, n: int, known: dict[int, int] | None = None) -> int:
    """a(n), one base-p digit at a time: a(m) reads a(m//p + j), so each digit
    level needs one short run of indices, listed down to the initials or to
    the first run that `known`, a memo of a shared between calls, holds in
    full.  Every value computed is added to `known`."""
    if n < 0:
        raise ValueError("index must be >= 0")
    known = {} if known is None else known
    init, lo, hi = len(rec.initials), n, n
    runs = [(lo, hi)]
    while hi >= init and any(m not in known for m in range(lo, hi + 1)):
        lo, hi = lo // rec.p, max(m // rec.p + len(rec.rows[m % rec.p]) - 1
                                  for m in range(max(lo, init), hi + 1))
        runs.append((lo, hi))
    for lo, hi in reversed(runs):
        for m in range(lo, hi + 1):
            if m not in known:
                known[m] = rec.initials[m] if m < init else rec._rule(m, known.__getitem__)
    return known[n]


def a_from_recursion_range(rec: RecursionSpec, n_max: int) -> list[int]:
    """[a(0), ..., a(n_max)], filled bottom-up in one list."""
    if n_max < 0:
        raise ValueError("index must be >= 0")
    values = list(rec.initials[: n_max + 1])
    for m in range(len(values), n_max + 1):
        values.append(rec._rule(m, values.__getitem__))
    return values


@lru_cache(maxsize=None)
def recursion_1px(p: int) -> RecursionSpec:
    """The closed 1+x recursion mod p (cached per p).

    a(pn+k) = A_k a(n) + B_k a(n+1) + C_k a(n+2) - (2p-1)(2p-2), trailing
    zero coefficients dropped.  It has p rows, so p above MAX_RECURSION_PRIME
    is refused before any is built.
    """
    check_prime(p)
    if p > MAX_RECURSION_PRIME:
        raise ValueError(f"the 1+x recursion mod {p} would build {p} rows, "
                         f"over MAX_RECURSION_PRIME = {MAX_RECURSION_PRIME}")
    rows = []
    for k in range(p):
        a = (p - k) * (p - k + 1) // 2
        b = k * p + k - k * k + (p * p - p) // 2
        c = (k * k - k) // 2
        rows.append((a, b, c) if c else ((a, b) if b else (a,)))
    return RecursionSpec(
        p=p,
        rows=tuple(rows),
        constant=(2 * p - 1) * (2 * p - 2),
        initials=(1, p, p * p, (p**3 + 4 * p * p - 5 * p + 2) // 2),
        threshold=3,
    )


# ------------------------------------------------------------- inference ----

def _solve_exact(aug: list[list[int]], n_unknowns: int) -> tuple[list[Fraction] | None, int]:
    """Solve an integer system [A | b] exactly.  Returns (solution, rank).

    Pivots are taken left to right and every unknown without a pivot is 0,
    so when the leading columns alone pin a solution, it comes back padded
    with zeros.  The solution is None when the system is inconsistent.
    Bareiss elimination keeps every entry an integer: after each pivot the
    rows below are cross-multiplied and divided exactly by the previous
    pivot, since each entry is then a minor of the input.  Fractions appear
    only in the back substitution.
    """
    rows = [r[:] for r in aug]
    prev, pivots = 1, []
    for c in range(n_unknowns):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            row, f = rows[i], rows[i][c]
            # columns left of c are zero below the pivot row already
            rows[i] = row[:c] + [(top[c] * a - f * b) // prev for a, b in zip(row[c:], top[c:])]
        prev = top[c]
        pivots.append(c)
    rank = len(pivots)
    if any(row[n_unknowns] for row in rows[rank:]):
        return None, rank
    sol = [Fraction(0)] * n_unknowns
    for row, c in reversed(list(zip(rows, pivots))):
        rest = sum((row[j] * sol[j] for j in range(c + 1, n_unknowns)), Fraction(0))
        sol[c] = (row[n_unknowns] - rest) / row[c]
    return sol, rank


SHIFTS = 4  # a(pn+k) reads a(n), ..., a(n+SHIFTS-1)


def infer_recursion(f: FpPoly, window: int | None = None) -> RecursionSpec:
    """Fit a(pn+k) = sum_j c_kj a(n+j) - K, j < SHIFTS, exactly to a(0..window).

    Per trial threshold t0 one system holds every equation at or above t0.
    Its solution with every non-pivot unknown 0 (see _solve_exact) is
    accepted when it is integral and at least two equations beyond the rank
    confirm it; the threshold reported is the smallest the recursion's
    descent allows.  A template of fewer shifts that fits alone comes back
    padded with zeros, which are trimmed; a linear a(n) leaves free unknowns
    at every template size and gets the same canonical fit.  `window`
    defaults to 4p + max(14, 3p).
    """
    p = f.p
    n_data = window if window is not None else 4 * p + max(14, 3 * p)
    data = line_complexity_range(f, n_data)
    # one equation per index m = pn+k the data covers, in the columns K, c_00,
    # ..., c_(p-1)0, c_01, ..., so the columns of fewer shifts are a prefix
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
                return RecursionSpec(
                    p=p,
                    rows=tuple(rows),
                    constant=int(sol[0]),
                    initials=tuple(data[:threshold]),
                    threshold=threshold,
                )
            except ValueError:
                continue  # descent not yet valid at this threshold
    raise InferenceError(
        f"no recursion a(pn+k) = sum_j c_kj a(n+j) - K with {SHIFTS} shifts fits "
        f"a(0..{n_data}) of {format_poly(f)} mod {p} from any threshold 3 to {2 * p + 5}")
