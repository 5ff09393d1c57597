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

Memory: each level is one matrix, its sorted distinct blocks as uint8 rows,
one row per orbit of the units of F_p: when f has two or more terms every
accessible set is closed under the units (_Closure gives the proof), so
each nonzero block is divided by its first nonzero digit and a(n) is
1 + (p - 1) times the nonzero rows.  Every level, candidate matrix and sort
key of a count then holds 1/(p - 1) of the blocks; p = 2, monomials and the
finite row horizons of the scan keep every block.  Every map step is one
call of _Closure._cuts, in which row r of the maps reads a source level of
its own: the scan's rows read one of two horizons, every other step reads
one level in all rows.  The step holds one candidate matrix, the p*p cuts
of its sources, filled one row's expansion at a time, and the index order
that sorts it; the cuts of a sorted level come in long sorted runs, which a
stable sort merges in little more than one pass (dividing the cuts breaks
some of them).  A row's expansion is gathered from tables of at most TABLE_CELLS digits, p
digits per lookup, built for that expansion.  Every pass over sorted
candidates reads one array, their first differences, a byte or two each:
a level keeps the heads of the runs of equal candidates, a fixpoint round
the heads it lacked, and a count bins them.  Only the fixpoint level stays.
A count of length n never builds level n.  From n = 2p on, unless
L = n - p*(n//2//p) is at most lc, it never gathers level s(n) either: the
first differences of its candidates give each block's front rank and level
s(L), and each block's suffix is ranked one chunk at a time.  Then it holds
level L's candidates, about n/2 digits wide, with their order and one
uint32 rank each; then p*p uint64 sort keys per row of level s(n), filled
one cut at a time and sorted in place, and a sparse table of level L's
first differences, about log2 k rows of k entries for the k rows of level
L (_split_firsts says why this is exact).  Otherwise the first
differences of the candidates of level n count it and every shorter
length.  One budget, CHUNK_DIGITS, sizes every streamed pass: a chunk of
rows holds that many digits, a chunk of sort keys or of _expand_row's table
keys that many bytes.
An array of more than MAX_CELLS bytes, a digit being one, raises
ClosureSizeError before it is allocated, and so does a fixpoint round whose
arrays together would.  Every call builds its own closure;
none is cached.  Digits are bytes, so p > 255 is refused.
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
    """Raised when one array of a closure step, or the arrays of one fixpoint
    round together, would hold more than MAX_CELLS bytes."""


def _row0_blocks(n: int) -> np.ndarray:
    """The sorted n-windows of row 0, a lone 1 in zeros: 0...0, 0...01, ..., 10...0."""
    _check_cells(n * (n + 1), f"the {n}-windows of row 0")
    return np.eye(n + 1, n, dtype=np.uint8)[::-1]


def _packed(mat: np.ndarray) -> np.ndarray:
    """Each row of a uint8 matrix as one void scalar, ordered as its digits."""
    return np.ascontiguousarray(mat).view(np.dtype((np.void, mat.shape[1]))).ravel()


CHUNK_DIGITS = 2**18  # digits, or bytes of keys, that one streamed pass reads at once
TABLE_CELLS = 2**16  # the most digits one lookup table of _expand_row holds


def _chunk(width: int) -> int:
    """Rows of `width` digits in one chunk of CHUNK_DIGITS, at least one."""
    return max(1, CHUNK_DIGITS // max(width, 1))


def _first_diffs(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The first differences of the rows read in `order`: entry i is the
    first column at which row order[i] differs from row order[i-1], or the
    row length if they are equal, in the smallest dtype that holds it; entry
    0 is 0, so the first row heads a run at every width.  Each chunk of
    _chunk(row length) pairs is gathered into one reused buffer and compared
    into one reused bool buffer, whose last column stays True so that argmax
    finds it for a pair of equal rows."""
    n, pairs = rows.shape[1], len(rows) - 1
    diffs = np.zeros(len(rows), np.min_scalar_type(n))
    step = _chunk(n)
    chunk = min(step, max(pairs, 0))
    gathered = np.empty((chunk + 1, n), rows.dtype)
    differs = np.ones((chunk, n + 1), bool)
    for lo in range(0, pairs, step):
        k = min(step, pairs - lo)
        # the order's indices are all in range; mode "raise" would buffer out
        block = np.take(rows, order[lo:lo + k + 1], axis=0, out=gathered[:k + 1], mode="clip")
        np.not_equal(block[1:], block[:-1], out=differs[:k, :n])
        diffs[lo + 1:lo + k + 1] = np.argmax(differs[:k], axis=1)
    return diffs


def _order(mat: np.ndarray) -> np.ndarray:
    """The stable order that sorts the rows of a C-contiguous uint8 matrix as
    their digits order them.  numpy's stable sort is TimSort, which merges
    the sorted runs it finds, so rows that come in few runs sort in about
    one pass."""
    return np.argsort(_packed(mat), kind="stable")


def _distinct(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The distinct rows of a matrix read in `order`, which sorts them: the
    first of each run of equal rows, the rows whose first difference from
    the row before falls inside the row, in that order."""
    return rows[order[_first_diffs(rows, order) < rows.shape[1]]]


def _unique_rows(mat: np.ndarray) -> np.ndarray:
    """The distinct rows of a uint8 matrix, in lexicographic order; mat is left as it is."""
    mat = np.ascontiguousarray(mat, np.uint8)
    return _distinct(mat, _order(mat))


@lru_cache(maxsize=None)
def _digit_products(p: int) -> np.ndarray:
    """The p x p table of a*b mod p, read-only, as uint16 so that the sum of
    two entries does not wrap."""
    digit = np.arange(p, dtype=np.uint16)
    times = digit[:, None] * digit % p
    times.setflags(write=False)
    return times


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """The inverse of each digit mod p, 0 for 0, read-only uint8."""
    inverse = np.array([0] + [pow(u, -1, p) for u in range(1, p)], np.uint8)
    inverse.setflags(write=False)
    return inverse


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ClosureSizeError(f"{what} would hold {cells} bytes, over the cap of {MAX_CELLS}")


def scan_accessible(f: FpPoly, n: int, max_row: int = SCAN_CAP) -> np.ndarray:
    """All n-blocks seen in rows 0..max_row (a finite-horizon view).

    The blocks are the rows of one uint8 matrix, sorted and distinct; n = 0
    gives the empty block, one row of no digits.
    """
    if n < 0:
        raise ValueError("block length must be >= 0")
    if max_row < 0:
        raise ValueError("the row horizon must be >= 0")
    if n == 0:
        return np.zeros((1, 0), np.uint8)
    return _Closure(f).horizon(n, max_row)


# ------------------------------------------------------------- closure ----

class _Closure:
    """Accessible-block sets of one polynomial, level by level.

    Level m is the sorted, duplicate-free uint8 matrix of the accessible
    m-blocks, one row per orbit of the units of F_p: each block divided by
    its first nonzero digit, and the zero block.  For f with two or more
    terms every accessible set is closed under the units, so a level of k
    rows holds 1 + units*(k - 1) blocks, units = p - 1.  Proof, for f =
    x^s*g with g(0) != 0 and e the least positive exponent of g: the x^e
    digit of row k of g is k*g(0)^(k-1)*g_e, which takes every unit value,
    since k mod p and k mod p-1 vary independently, and row k*p^j spaces
    it p^j from every other digit, so every block whose one nonzero digit
    is u is accessible.  The accessible blocks are the least set that holds
    row 0's windows, the blocks whose one nonzero digit is 1, and is closed
    under the cuts; the cuts are F_p-linear, so u times that set is the
    least closed set that holds the blocks of one digit u, which lie in it.
    A monomial c*x^k has only powers of c in its rows, and p = 2 has one
    unit: for both, units = 1 and no block is divided.  Nor are the blocks
    of a row horizon, which is not closed under the units.

    Level lc, the least fixpoint of the maps, is kept; a shorter level is
    the distinct prefixes of its rows (a prefix of a divided block is
    divided or zero), and a longer level m is the maps applied to level
    _source_len(m) < m, each cut divided again (the cut of u*b is u times
    the cut of b), so level n needs only the chain n -> _source_len(n) ->
    ... -> lc, each link dropped once the next is cut.  Every level, horizon
    and window map is one map step, _cuts(sources, n), and one stable index
    sort: the candidates are not moved to sort them, and a level is
    gathered from the first of each run.
    """

    def __init__(self, f: FpPoly):
        if f.is_zero():
            raise ValueError("accessible blocks of the zero polynomial are not defined")
        self.p = f.p
        self.d = len(f.coeffs) - 1
        self.rows = list(iter_rows(f, f.p))
        self.units = self.p - 1 if sum(map(bool, f.coeffs)) > 1 else 1
        # a table of _expand_row, p**group rows of p digits, is keyed by up to
        # `group` source digits
        self.group = 1
        while self.p ** (self.group + 1) * self.p <= TABLE_CELLS:
            self.group += 1
        # a row that reads more source digits than one table keys sums one
        # residue per table in this dtype, then reduces the sum mod p
        terms = (max(len(rr) for rr in self.rows) - 1) // self.p + 1
        self.dtype = np.min_scalar_type((self.p - 1) * -(-terms // self.group))
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
            s = q % self.p
            grown = _unique_rows(self._cuts([full] * (s + 1) + [short] * (self.p - s - 1), m))
            if chain:
                short = _unique_rows(self._cuts([full] * s + [short] * (self.p - s), m))
            full = grown
        return full

    @cached_property
    def fixpoint(self) -> np.ndarray:
        """The accessible lc-blocks: the maps take those of rows 0..R to the
        larger set of rows 0..pR+p-1, grown from row 0 until it stops.  The
        image of a set is the union of its blocks' images and contains the
        set, so each round expands only the blocks the last one added.  A
        round sorts the set it holds with the cuts it made, stably, so a
        block it held heads its run of equal rows, and the heads after the
        held set are the blocks it adds."""
        fix = new = _row0_blocks(self.lc)
        while len(new):
            cuts = self._orbits(self._cuts([new] * self.p, self.lc))
            # held at once: the set, the cuts, both joined, and their sort order
            rows = len(fix) + len(cuts)
            _check_cells(2 * rows * self.lc + 8 * rows,
                         f"a fixpoint round of {len(fix)} held blocks and {len(cuts)} cuts")
            both = np.concatenate([fix, cuts])
            order = _order(both)
            heads = order[_first_diffs(both, order) < self.lc]
            new, fix = both[heads[heads >= len(fix)]], both[heads]
        return fix

    def _row_tables(self, r: int) -> list[tuple[range, np.ndarray]]:
        """Row r's tables (see _expand_row): the source digits k < kt that
        it reads, split into groups of at most self.group, each with a table
        of p**len(group) rows of p digits."""
        p, rr = self.p, self.rows[r]
        kt = (len(rr) - 1) // p + 1
        # coef[k, i] = rr[p*k+i], the weight of src[u-k] in digit p*u+i
        coef = np.zeros((kt, p), np.intp)
        coef.flat[:len(rr)] = rr
        times, tables = _digit_products(p), []
        for lo in range(0, kt, self.group):
            ks = range(lo, min(lo + self.group, kt))
            # row sum_j c_j p^j: the p digits that src[u-ks[0]-j] = c_j contribute
            table = times[:, coef[ks[0]]]
            for k in ks[1:]:
                table = (times[:, coef[k]][:, None] + table).reshape(-1, p) % p
            tables.append((ks, table.astype(np.uint8)))
        return tables

    def _expand_row(self, src: np.ndarray, r: int) -> np.ndarray:
        """Each source block dilated by p and convolved with row r, as p*(s+kt)
        digits for a block of s digits, the last ones zero.

        With kt = ceil(len(rr)/p), digit p*u+i is the sum over k < kt of
        rr[p*k+i] * src[u-k] mod p: the p digits at u are a fixed function of
        the kt source digits up to u (a sliding block code), read from
        tables.  The kt digits are split into groups of at most self.group,
        and a group's base-p value keys a table of its p digits.  With one
        group, the usual case, the table gather fills the output directly;
        with several, the lookups are summed in self.dtype and reduced mod p.
        np.take holds its keys as intp, so they are built and gathered one
        chunk of CHUNK_DIGITS bytes at a time.
        """
        p, tables = self.p, self._row_tables(r)
        kt = (len(self.rows[r]) - 1) // p + 1
        n, s = src.shape
        width = s + kt
        out = np.empty((n, width, p), np.uint8)
        step = _chunk(np.dtype(np.intp).itemsize * width)
        keys = np.empty((min(step, n), width), np.intp)
        for top in range(0, n, step):
            chunk = src[top:top + step]
            key, dest, sums = keys[:len(chunk)], out[top:top + len(chunk)], None
            for ks, table in tables:
                # the group's last digit is the key's most significant:
                # it is placed among zeros, then Horner's rule adds the rest
                key[:, :ks[-1]] = 0
                key[:, ks[-1] + s:] = 0
                key[:, ks[-1]:ks[-1] + s] = chunk
                for k in reversed(ks[:-1]):
                    key *= p
                    key[:, k:k + s] += chunk
                # every key is a table row; mode "raise" would buffer out
                if len(tables) == 1:
                    np.take(table, key, axis=0, out=dest, mode="clip")
                else:
                    part = np.take(table, key, axis=0, mode="clip")
                    sums = part.astype(self.dtype) if sums is None else np.add(sums, part, out=sums)
            if sums is not None:
                np.remainder(sums, p, out=dest)
        return out.reshape(n, p * width)

    def _cuts(self, sources: list[np.ndarray], n: int) -> np.ndarray:
        """The p*p cuts of the source levels, one matrix of n-windows; row r
        of the maps reads the blocks of sources[r].

        Per row r in order, cut p*r+j sends the source block at position t
        of row m to the n-window at p*t+dr+j of row p*m+r, where dr is the
        degree of row r; each cut's windows follow the source blocks' order.
        Each row's expansion, one held at a time, and the matrix are sized
        before anything is allocated; the matrix is allocated once, and each
        row's expansion is dropped before the next is built.
        """
        p = self.p
        # row r expands a block of s digits to p*(s+kt) (see _expand_row)
        cells, r = max((len(src) * p * (src.shape[1] + (len(rr) - 1) // p + 1), r)
                       for r, (src, rr) in enumerate(zip(sources, self.rows)))
        _check_cells(cells, f"the expansion of {len(sources[r])} blocks by row {r}")
        rows = p * sum(map(len, sources))
        _check_cells(rows * n, f"the candidate {n}-blocks")
        out = np.empty((rows, n), np.uint8)
        at = 0
        for r, src in enumerate(sources):
            e = self._expand_row(src, r)
            dr = len(self.rows[r]) - 1
            # offsets dr..dr+p-1 realize every alignment of a true window
            # while staying inside the patch the source block determines
            for o in range(dr, dr + p):
                out[at:at + len(e)] = e[:, o:o + n]
                at += len(e)
            del e
        return out

    def _normalize(self, mat: np.ndarray) -> np.ndarray:
        """Divide each row of mat in place by its first nonzero digit, and
        return those digits as uint8, 0 for a zero row.  One chunk of rows
        at a time: its first nonzero columns, then the rows whose digit is
        not 1 times its inverse mod p, in bytes while (p-1)**2 fits one."""
        p, inverse = self.p, _inverses(self.p)
        units = np.empty(len(mat), np.uint8)
        step = _chunk(mat.shape[1])
        for lo in range(0, len(mat), step):
            block = mat[lo:lo + step]
            first = np.argmax(block != 0, axis=1)
            unit = units[lo:lo + step] = block[np.arange(len(block)), first]
            rows = np.flatnonzero(unit > 1)
            scaled = block[rows] if p <= 16 else block[rows].astype(np.uint16)
            np.multiply(scaled, inverse[unit[rows], None], out=scaled)
            block[rows] = np.remainder(scaled, p, out=scaled)
        return units

    def _orbits(self, mat: np.ndarray) -> np.ndarray:
        """mat, each row divided by its first nonzero digit when units > 1."""
        if self.units > 1:
            self._normalize(mat)
        return mat

    def _multiples(self, level: np.ndarray) -> np.ndarray:
        """The whole level: every unit multiple of its rows, sorted and distinct."""
        if self.units == 1:
            return level
        times = _digit_products(self.p)[1:].astype(np.uint8)
        return _unique_rows(times[:, level].reshape(-1, level.shape[1]))

    def candidates(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The accessible n-blocks (n >= 1), one per orbit and matrix row,
        each as often as it is found, and the order that sorts them.  Above
        lc they are the divided cuts of their source level; at or below lc
        they are the prefixes of the sorted fixpoint, so the order is one
        linear pass."""
        if n > self.lc:
            mat = self._orbits(self._cuts([self.level(self._source_len(n))] * self.p, n))
        else:
            mat = np.ascontiguousarray(self.fixpoint[:, :n])
        return mat, _order(mat)

    def level(self, n: int) -> np.ndarray:
        """The accessible n-blocks (n >= 1), one per orbit, sorted, one per matrix row."""
        return _distinct(*self.candidates(n))


def window_maps(f: FpPoly, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted accessible n-blocks and, per cut, the index of each one's image.

    n must be its own source length (d+1 or d+2 for f of degree d), so that
    every cut of an accessible n-block is again one.  The images are one
    (p, p, blocks) array: [r, j, i] is the index of the image of block i
    under cut p*r+j (see _Closure._cuts).
    """
    closure = _Closure(f)
    if closure._source_len(n) != n:
        raise ValueError(f"window length {n} is not its own source length")
    level = closure._multiples(closure.level(n))
    cuts = closure._cuts([level] * f.p, n)
    images = np.searchsorted(_packed(level), _packed(cuts))
    return level, images.reshape(f.p, f.p, len(level))


def line_complexity(f: FpPoly, n: int) -> int:
    """a(n): exact count of accessible n-blocks via the self-similar closure."""
    if n < 0:
        raise ValueError("block length must be >= 0")
    return line_complexity_range(f, n)[n]


def line_complexity_range(f: FpPoly, n_max: int) -> list[int]:
    """[a(0), ..., a(n_max)] from the sorted windows of length n_max.

    A window extends one digit right inside its row, so the m-blocks are the
    distinct m-prefixes of the sorted n_max-blocks, and a(m) is 1 plus the
    adjacent unequal windows that first differ before column m: a histogram
    of their first differences.  Level n_max is counted, never built.  With
    t = n_max//2//p >= 1 and L = n_max - p*t above lc, each n_max-window is
    two overlapping L-windows, cut from the prefix and the suffix of one
    block of level s(n_max), and _split_firsts counts the windows from
    their rank pairs in level L.  Otherwise the histogram is one bincount of
    the first differences of the candidates of level n_max, read in order
    with their repeats, never deduplicated.
    """
    if n_max < 0:
        raise ValueError("block length must be >= 0")
    closure = _Closure(f)
    if n_max == 0:
        return [1]
    t = n_max // 2 // closure.p
    if t and n_max - closure.p * t > closure.lc:
        firsts = _split_firsts(closure, n_max, t)
    else:
        firsts = np.bincount(_first_diffs(*closure.candidates(n_max))[1:], minlength=n_max + 1)
    # the last bin holds the pairs of equal windows; each unequal pair
    # starts one orbit of `units` blocks
    return [1, *(1 + closure.units * np.cumsum(firsts[:n_max])).tolist()]


def _rank(mat: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count and rank the candidates of one level from their first
    differences, read in their sorted order.

    Returns firsts, where firsts[k] counts the adjacent sorted candidates
    that first differ at column k (k = n for equal ones); the rank of each
    candidate among the level's distinct blocks, uint32, in the candidates'
    own order, the heads of runs counted up to it; and lcp, where lcp[i] is
    the first column at which distinct blocks i and i+1 differ, the first
    differences of the heads after the first.
    """
    n = mat.shape[1]
    diffs = _first_diffs(mat, order)
    heads = diffs < n
    ranks = np.empty(len(mat), np.uint32)
    ranks[order] = np.cumsum(heads, dtype=np.uint32) - 1
    return np.bincount(diffs[1:], minlength=n + 1), ranks, diffs[heads][1:]


def _range_minima(values: np.ndarray) -> np.ndarray:
    """The sparse table of values: row k holds min(values[i:i + 2**k]) at
    every i <= len(values) - 2**k (Bender & Farach-Colton, LATIN 2000), so
    the minimum of any range is that of two rows' entries."""
    levels = len(values).bit_length()
    _check_cells(levels * values.nbytes, f"the range minima of {len(values)} first differences")
    table = np.empty((levels, len(values)), values.dtype)
    table[:1] = values
    for k in range(1, levels):
        h, valid = 1 << (k - 1), len(values) - (1 << k) + 1
        np.minimum(table[k - 1, :valid], table[k - 1, h:h + valid], out=table[k, :valid])
    return table


def _split_firsts(closure: _Closure, n: int, t: int) -> np.ndarray:
    """firsts, as _rank counts them, bin n included, for the sorted
    n-windows, one per orbit, found from the candidates of the shorter
    level L = n - p*t, where lc < L and n/2 <= L.

    s(n) = t + s(L), and cut p*r+j of a block b of level s(n) is two
    L-windows.  Its first L digits are cut p*r+j of b[:s(L)], since they
    read source digits below s(L).  Its last L digits are cut p*r+j of
    b[t:]: digit P = p*u+i of an expansion sums rr[p*k+i]*src[u-k] over
    p*k+i <= dr, so at P >= dr every term has u-k >= 0, and digit P + p*t of
    b's expansion reads b[t:] alone.  The halves overlap, so sorting the
    windows' rank pairs in level L, as uint64 keys, sorts the windows.
    Windows whose first halves differ first differ where those L-blocks do,
    which level L's own count gives for every m <= L; windows with equal
    first halves first differ at n - L plus the least first difference of
    level L between their second halves' ranks; equal keys are equal
    windows.

    With units > 1 every half is u times a block of level L, and a window
    divided by the unit u of its first half has the second half (v/u)
    times the block of rank k, v its unit (a zero first half takes u = 0
    and the ratio 0, a zero second half v = 0).  So its key holds, below
    the first half's rank, the second half's first nonzero column c, the
    ratio v/u and k.  Two windows with equal first halves and unequal
    (c, v/u) first differ at the smaller c; with equal (c, v/u), where
    their ranks do.  Level L is sorted, so c falls as the rank grows and is
    the running minimum of its first differences.  A block's suffix b[t:]
    is divided before it is ranked, and its unit scales the cut's.

    Beside the sorted keys, no array holds one entry per window.  Level
    s(n) is read from the first differences of its sorted candidates, never
    gathered: its blocks are the candidates that first differ from the one
    before below column s(n), and level s(L), the blocks' distinct
    prefixes, those that differ below s(L), so a block's front rank counts
    the prefixes up to it.  Only the suffix ranks need searchsorted, on
    level s(L), one chunk at a time.  The keys are filled one cut at a time
    and sorted in place, and the adjacent pairs, their range minima
    included, are read one chunk at a time.
    """
    p, quotient = closure.p, closure.units > 1
    half = n - p * t
    width = closure._source_len(half)
    mat, order = closure.candidates(closure._source_len(n))
    diffs = _first_diffs(mat, order)
    # the sorted candidates that head a block of level s(n), and their
    # front ranks: the blocks of level s(L) up to them
    block = diffs < mat.shape[1]
    heads = order[block]
    windows = p * p * len(heads)
    _check_cells(8 * windows, f"the {windows} sort keys of level {n}")
    prefix = diffs < width
    front = (np.cumsum(prefix, dtype=np.uint32) - 1)[block]
    sources = mat[order[prefix], :width]
    del diffs, block, prefix
    index = _packed(sources)
    back = np.empty(len(heads), np.uint32)
    scale = np.ones(len(heads), np.uint8)  # the unit of each suffix
    step = _chunk(width)
    for lo in range(0, len(heads), step):
        suffix = mat[heads[lo:lo + step], t:]
        if quotient:
            scale[lo:lo + step] = closure._normalize(suffix)
        back[lo:lo + step] = np.searchsorted(index, _packed(suffix))
    del mat, order, heads, index
    cuts = closure._cuts([sources] * p, half)
    del sources
    units = closure._normalize(cuts) if quotient else np.ones(len(cuts), np.uint8)
    counts, ranks, lcp = _rank(cuts, _order(cuts))
    del cuts
    # key = front rank, then the second half's c and v/u when quotient,
    # then its rank: fields that fit 64 bits, since level L has fewer than
    # MAX_CELLS/L blocks and p <= L.  Level L is sorted from its zero block
    # on, so c is the running minimum of lcp
    rank_bits = len(lcp).bit_length()
    col_bits, ratio_bits = (half.bit_length(), (p - 1).bit_length()) if quotient else (0, 0)
    back_bits = col_bits + ratio_bits + rank_bits
    cols = np.minimum.accumulate(np.concatenate([[half], lcp]).astype(lcp.dtype))
    # filled one cut at a time from two codes per block of level L, its
    # rank shifted up and (c, rank); v/u is two lookups per window in the
    # flat table of products, the suffix's unit times the cut's, then the
    # inverse of the front's unit times that, shifted into place
    products = _digit_products(p).ravel()
    ratios = products.astype(np.uint64) << rank_bits
    inverse = _inverses(p).astype(np.intp) * p
    scale = scale.astype(np.intp) * p
    key = np.empty((p * p, len(front)), np.uint64)
    for cut, img, unit in zip(key, ranks.reshape(p * p, -1), units.reshape(p * p, -1)):
        code = img.astype(np.uint64)
        np.take(code << back_bits, front, out=cut)
        if quotient:
            code |= cols[img].astype(np.uint64) << ratio_bits + rank_bits
            cut |= np.take(ratios, inverse[unit][front] + np.take(products, scale + unit[back]))
        cut |= code[back]
    del ranks, units, front, back, scale
    key = key.ravel()
    key.sort()
    table = _range_minima(lcp).ravel()  # row k of the table starts at k*len(lcp)
    firsts = np.zeros(n + 1, np.int64)
    firsts[:half] = counts[:half]
    step = _chunk(key.itemsize)
    for lo in range(0, windows - 1, step):
        pair = key[lo:lo + step + 1]
        diff = pair[1:] ^ pair[:-1]
        firsts[n] += len(diff) - np.count_nonzero(diff)
        # the adjacent windows whose first halves are equal and second halves not
        tied = np.flatnonzero((diff > 0) & (diff < 1 << back_bits))
        first, second = ((pair[tied + i] & (1 << back_bits) - 1).astype(np.intp) for i in (0, 1))
        # their second halves first differ at the first one's c, unless
        # (c, v/u) is equal, and then where the blocks of their ranks do
        shared = first >> ratio_bits + rank_bits
        same = np.flatnonzero(first >> rank_bits == second >> rank_bits)
        a, b = first[same] & (1 << rank_bits) - 1, second[same] & (1 << rank_bits) - 1
        k = np.frexp(b - a)[1] - 1  # floor(log2(b - a)), exact below 2**53
        b -= 1 << k
        k *= len(lcp)
        shared[same] = np.minimum(np.take(table, k + a), np.take(table, k + b))
        firsts[n - half:n] += np.bincount(shared, minlength=half)
    return firsts


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

    The systems are nested, so the last threshold that still leaves two
    equations beyond a full rank is solved first.  When that system pins its
    one solution x, every system of a smaller threshold is consistent exactly
    when x satisfies its extra equations, and x is then its solution: those
    thresholds are settled by exact integer residuals, not by solves.
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
    unknowns = SHIFTS * p + 1
    # the largest threshold that leaves two equations beyond a full rank
    last = min(2 * p + 5, len(equations) - unknowns - 2)
    full, pinned = False, None
    if last >= 3:
        x, rank = _solve_exact(equations[last:], unknowns)
        full = rank == unknowns
        if full and x is not None and all(v.denominator == 1 for v in x):
            pinned = [int(v) for v in x]
    for t0 in range(3, 2 * p + 6):
        if full and t0 <= last:
            if pinned is None or any(sum(a * v for a, v in zip(eq, pinned)) != eq[-1]
                                     for eq in equations[t0:last]):
                continue
            sol = pinned
        else:
            aug = equations[t0:]
            sol, rank = _solve_exact(aug, unknowns)
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
