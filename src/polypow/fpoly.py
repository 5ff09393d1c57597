"""Dense polynomials over Z/p and the coefficient rows of their powers.

Coefficients are stored low degree first; the zero polynomial is the empty
tuple.  Row k is the digit string of f(x)^k reduced mod p, again low degree
first.  Both row routes rest on Frobenius, f^(tC+a) = f^a * f^t(x^C) for C a
power of p.  poly_pow builds one row from the base-p digits of k (C = p),
squaring only below p, in O(k*p*d^2) digit operations, not dense O((k*d)^2).
row_blocks builds the rows in p-adic blocks and yields them as uint8
matrices of consecutive rows; iter_rows yields them one row at a time.  At
p = 2 the blocks are built as packed bits, eight digits to a byte, and
row_counts counts each row's nonzero digits by a popcount of those bytes;
at odd p the blocks hold one digit per byte.  count_coeff counts one
residue, or every nonzero digit, in a row, cumulative_count sums that over
rows 0..n-1, and the nonzero pattern of the rows renders as a bitmap.
divmod_mod and gcd_mod divide plain coefficient lists over Z/p, and
squarefree_parts splits a polynomial into square-free parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# Sentinel accepted by the counting functions in place of a residue.
TOTAL = "total"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461  # least strong pseudoprime to all of them


def is_prime(n: int) -> bool:
    """Miller-Rabin, exact below _MR_BOUND (Sorenson & Webster 2015); larger n raise ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is only decided below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    return p


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over Z/p, coefficients low degree first, trailing zeros trimmed."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if self.coeffs and (self.coeffs[-1] == 0 or min(self.coeffs) < 0
                            or max(self.coeffs) >= self.p):
            raise ValueError("coefficients must be reduced and trimmed; use FpPoly.make")

    @staticmethod
    def make(p: int, coeffs) -> "FpPoly":
        check_prime(p)
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return FpPoly(p, tuple(cs))

    @staticmethod
    def one(p: int) -> "FpPoly":
        return FpPoly.make(p, [1])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return FpPoly(self.p, ())
        return FpPoly.make(self.p, _convolve_mod(self.coeffs, other.coeffs, self.p))

    def inflate(self, c: int) -> "FpPoly":
        """Substitute x -> x^c."""
        if c < 1:
            raise ValueError("inflation factor must be >= 1")
        out = [0] * (self.degree * c + 1)
        for i, a in enumerate(self.coeffs):
            out[i * c] = a
        return FpPoly(self.p, tuple(out))

    def reverse(self) -> "FpPoly":
        """x^deg * f(1/x); the zero polynomial reverses to itself."""
        return FpPoly.make(self.p, self.coeffs[::-1])

    def _check_same_field(self, other: "FpPoly"):
        if self.p != other.p:
            raise ValueError("mixed moduli")


def _convolve_mod(a, b, p: int) -> list[int]:
    """Exact convolution mod p: in int64 while (p-1)^2*len fits, else in Python ints."""
    dtype = np.int64 if min(len(a), len(b)) * (p - 1) ** 2 < 2**62 else object
    out = np.convolve(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    return (out % p).tolist()


def divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over Z/p, ascending lists reduced mod p.

    b must be trimmed and nonzero; the remainder comes back trimmed.
    """
    rem, n = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - n, 0)
    for i in range(len(rem) - n - 1, -1, -1):
        c = quot[i] = rem[i + n] * inv % p
        if c:
            rem[i : i + n] = [(x - c * y) % p for x, y in zip(rem[i : i + n], b)]
    del rem[n:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over Z/p of two trimmed ascending lists reduced mod p, not both zero."""
    while b:
        a, b = b, divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def squarefree_parts(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """(g, k) pairs with f = lc * prod g^k, each g monic, square-free and coprime
    to the others; the decomposition is that of Yun (1976) over Z/p.

    gcd(f, f') holds each factor of multiplicity k with multiplicity k - 1,
    or k when p divides k, so the quotients of one gcd chain give the parts
    whose multiplicity p does not divide.  What is left is a p-th power
    g(x^p) = g(x)^p (the Frobenius fixes Z/p), so its p-th root is
    decomposed the same way with every multiplicity times p.
    """
    p = f.p
    if f.degree < 1:
        return []
    inv = pow(f.coeffs[-1], -1, p)
    cur, scale, parts = [c * inv % p for c in f.coeffs], 1, []
    while True:
        deriv = [i * c % p for i, c in enumerate(cur)][1:]
        while deriv and deriv[-1] == 0:
            deriv.pop()
        rest = cur
        if deriv:
            rest = gcd_mod(cur, deriv, p)
            h, k = divmod_mod(cur, rest, p)[0], 1
            while len(h) > 1:
                common = gcd_mod(rest, h, p)
                part = divmod_mod(h, common, p)[0]
                if len(part) > 1:
                    parts.append((FpPoly(p, tuple(part)), k * scale))
                rest, h, k = divmod_mod(rest, common, p)[0], common, k + 1
        if len(rest) == 1:
            return parts
        cur, scale = rest[::p], scale * p


def poly_pow(f: FpPoly, k: int) -> FpPoly:
    """f^k mod p, one base-p digit of k at a time: f^(pm+r) = f^m(x^p) * f^r
    for k >= p, and f^k = (f^(k//2))^2 * f^(k%2) below p."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if f.degree < 1:  # c^k at once, with 0^0 = 1: no digits to recurse on
        return FpPoly.make(f.p, [pow(f.coeffs[0] if f.coeffs else 0, k, f.p)])
    if k < 2:
        return f if k else FpPoly.one(f.p)
    if k >= f.p:
        g, r = poly_pow(f, k // f.p).inflate(f.p), k % f.p
    else:
        g, r = poly_pow(f, k // 2), k % 2
        g = g * g
    return g * poly_pow(f, r) if r else g


# Rows hold one digit per byte, so larger primes would wrap their digits.
MAX_ROW_PRIME = 255
# Digits in one block of row_blocks: C rows of the widest width, C the largest
# power of p that fits, but never below p.  8 MB of uint8, built in uint16
# for odd p and as packed bits (1 MB) at p = 2, where the packed blocks hold
# max(C, 8) rows.  A smaller cap means more, narrower adds: at 2^19, the
# 3^9 rows of 1+x+x^2+x^5 mod 3 take 120 s instead of 6 s, and its 2^14
# rows mod 2 0.5 s instead of 0.2 s.
ROW_BLOCK_CELLS = 2**23


def iter_rows(f: FpPoly, n: int):
    """Rows 0..n-1 of f as read-only numpy uint8 arrays, row k of length k*d+1.

    The rows are slices of the blocks of row_blocks.  Refuses, before
    yielding anything, the zero polynomial and p > 255.
    """
    d = f.degree
    return (block[i, : (start + i) * d + 1]
            for start, block in row_blocks(f, n) for i in range(len(block)))


def row_blocks(f: FpPoly, n: int):
    """Rows 0..n-1 of f, as (start, block) pairs of consecutive rows.

    block[i] holds the digits of row start+i in read-only uint8, zero-padded
    to the width of the block's last row.  By Frobenius f^(tC+a) = f^a * f^t(x^C)
    for C a power of p, so rows tC..tC+C-1 are the first C rows shifted by
    multiples of C and weighted by the digits of row t: a few whole-block adds
    per block instead of a convolution per row.  Odd p adds in uint16, at
    most (p-1) + (p-1)^2 before each reduction mod p, so digits never wrap.
    p = 2 adds by XOR on packed bits (see _packed_blocks) and unpacks each
    block to one digit per byte.  Refuses, before building anything, the
    zero polynomial and p > 255.
    """
    _check_rows(f)
    return _row_blocks(f, n)


def row_counts(f: FpPoly, n: int) -> np.ndarray:
    """The nonzero digits of each row 0..n-1 of f, as int64.

    At p = 2 this is a popcount of the packed blocks, never unpacked; at odd
    p it is count_nonzero over the blocks of row_blocks.  Refuses, before
    building anything, n < 0, the zero polynomial and p > 255.
    """
    if n < 0:
        raise ValueError("row count must be >= 0")
    _check_rows(f)
    counts = np.zeros(n, np.int64)
    if f.p == 2:
        for start, bits in _packed_blocks(f, n, max(_block_rows(f, n), 8)):
            # uint32 sums are exact: a row of 2^32 digits would be 512 MB packed
            counts[start : start + len(bits)] = _popcount(bits).sum(axis=1, dtype=np.uint32)
    else:
        for start, block in _row_blocks(f, n):
            counts[start : start + len(block)] = np.count_nonzero(block, axis=1)
    return counts


def _pick_popcount():
    """Set bits per byte: np.bitwise_count where numpy has it (2.0 on), else
    a 256-entry table."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count
    return np.array([bin(b).count("1") for b in range(256)], np.uint8).take


_popcount = _pick_popcount()


def _check_rows(f: FpPoly) -> None:
    if f.is_zero():
        raise ValueError("rows of the zero polynomial are not defined")
    if f.p > MAX_ROW_PRIME:
        raise ValueError(
            f"rows store digits as bytes, so p must be <= {MAX_ROW_PRIME}, got {f.p}")


def _block_rows(f: FpPoly, n: int) -> int:
    """C, the rows of one block of row_blocks (see ROW_BLOCK_CELLS)."""
    p, width = f.p, (n - 1) * f.degree + 1
    size = p
    while size < n and size * p * width <= ROW_BLOCK_CELLS:
        size *= p
    return size


def _row_blocks(f: FpPoly, n: int):
    if n <= 0:
        return
    size, d = _block_rows(f, n), f.degree
    if f.p > 2:
        yield from _digit_blocks(f, n, size)
        return
    # a packed block of max(C, 8) rows is unpacked C rows at a time, so the
    # blocks are those of C rows that the cap allows
    for start, bits in _packed_blocks(f, n, max(size, 8)):
        for i in range(0, len(bits), size):
            rows = bits[i : i + size]
            block = np.unpackbits(rows, axis=1, count=(start + i + len(rows) - 1) * d + 1,
                                  bitorder="little")
            block.flags.writeable = False
            yield start + i, block


def _add_shifted(out: np.ndarray, src: np.ndarray, digits, shift: int, p: int) -> None:
    """out += sum_i digits[i] * (src shifted right by i*shift columns), mod p."""
    w = src.shape[1]
    for i in np.flatnonzero(digits).tolist():
        view = out[:, i * shift : i * shift + w]
        view += int(digits[i]) * src
        view %= p


def _digit_base(f: FpPoly, m: int) -> np.ndarray:
    """Rows 0..m-1 of f, zero-padded to row m-1: rows below p by convolution,
    then each level by Lucas doubling, rows [tS, (t+1)S) being rows [0, S)
    times f^t(x^S), in uint16 reduced mod p."""
    p, d = f.p, f.degree
    base = np.zeros((m, (m - 1) * d + 1), np.uint16)
    row, f_digits = np.ones(1, np.int64), np.asarray(f.coeffs, np.int64)
    for k in range(min(p, m)):
        if k:
            row = np.convolve(row, f_digits) % p
        base[k, : k * d + 1] = row
    step = p
    while step < m:
        for t in range(1, p):
            lo, hi = t * step, min((t + 1) * step, m)
            if lo >= m:
                break
            _add_shifted(base[lo:hi], base[: hi - lo, : (hi - lo - 1) * d + 1],
                         base[t, : t * d + 1], step, p)
        step *= p
    return base


def _digit_blocks(f: FpPoly, n: int, size: int):
    """Rows 0..n-1 of f at odd p in blocks of size rows, read-only uint8."""
    p, d = f.p, f.degree
    base = _digit_base(f, min(size, n))
    # block t is weighted by row t < tC, so rows 0..n_blocks-1 are kept as
    # they are made; blocks are yielded read-only, since they are read again
    n_blocks = -(-n // size)
    block = _frozen(base)
    prefix = [block[k, : k * d + 1] for k in range(min(len(base), n_blocks))]
    yield 0, block
    for t in range(1, n_blocks):
        start = t * size
        rows = min(size, n - start)
        out = np.zeros((rows, (start + rows - 1) * d + 1), np.uint16)
        _add_shifted(out, base[:rows, : (rows - 1) * d + 1], prefix[t], size, p)
        block = _frozen(out)
        prefix += [block[k - start, : k * d + 1] for k in range(start, min(start + rows, n_blocks))]
        yield start, block


def _frozen(digits: np.ndarray) -> np.ndarray:
    """A read-only uint8 copy of digits."""
    out = digits.astype(np.uint8)
    out.flags.writeable = False
    return out


def _packed_width(k: int, d: int) -> int:
    """Bytes of row k, k*d+1 digits, packed 8 to a byte."""
    return (k * d + 8) // 8


def _packed_blocks(f: FpPoly, n: int, size: int):
    """Rows 0..n-1 of f mod 2, as (start, bits) pairs of size rows each.

    bits[i] holds row start+i, digit j in bit j % 8 of byte j // 8 (the
    "little" bit order of np.packbits), zero-padded to the bytes of the
    block's last row.  size is a power of 2, at least 8.  The base holds
    the first B rows, B >= size the largest power of 2 whose rows fit
    ROW_BLOCK_CELLS, and row tB+a = f^a * f^t(x^B): a block past the base
    is a slice of size rows of the base, XORed in at B/8 bytes times each
    nonzero digit of row t.  A block of the base is a view of it.
    """
    if n <= 0:
        return
    d = f.degree
    big = size
    while big < n and 2 * big * ((2 * big - 1) * d + 1) <= ROW_BLOCK_CELLS:
        big *= 2
    base = _packed_base(f, min(big, n))
    # row t weights the blocks of rows tB..tB+B-1, and t < tB for t >= 1, so
    # rows 0..n_weights-1 are kept as they are made
    n_weights = -(-n // big)
    weights = [_ones(row) for row in base[:n_weights]]
    for block in range(-(-n // size)):
        start = block * size
        t, a = divmod(start, big)
        rows = min(size, n - start)
        bits = base[a : a + rows, : _packed_width(a + rows - 1, d)]
        if t:
            out = np.zeros((rows, _packed_width(start + rows - 1, d)), np.uint8)
            for s in (weights[t] * (big // 8)).tolist():
                out[:, s : s + bits.shape[1]] ^= bits
            weights += [_ones(row) for row in out[: max(n_weights - start, 0)]]
            bits = out
        yield start, bits


def _packed_base(f: FpPoly, m: int) -> np.ndarray:
    """Rows 0..m-1 of f mod 2, packed as in _packed_blocks: rows below 8 are
    those of _digit_base, and each later doubling step XORs the rows before
    it in at S/8 bytes times each nonzero digit of f, S the rows so far."""
    d = f.degree
    base = np.zeros((m, _packed_width(m - 1, d)), np.uint8)
    low = min(8, m)
    base[:low, : _packed_width(low - 1, d)] = np.packbits(_digit_base(f, low), axis=1,
                                                          bitorder="little")
    # rows [S, 2S) are rows [0, S) times f(x^S).  Shifted by at most d*S
    # digits, row r < S still ends in row r+S, so the rows go in as one run
    # of bytes: what spills past a row's end, or is cut off the last, is zero.
    flat, width, step = base.reshape(-1), base.shape[1], 8
    while step < m:
        hi = min(2 * step, m)
        for s in (np.flatnonzero(f.coeffs) * (step // 8)).tolist():
            flat[step * width + s : hi * width] ^= flat[: (hi - step) * width - s]
        step *= 2
    return base


def _ones(bits: np.ndarray) -> np.ndarray:
    """Positions of the nonzero digits of one packed row."""
    return np.flatnonzero(np.unpackbits(bits, bitorder="little"))


def count_coeff(f: FpPoly, k: int, alpha) -> int:
    """Occurrences of residue alpha in row k, or of any nonzero digit for TOTAL."""
    if alpha != TOTAL:
        _check_residue(f.p, alpha)
    row = poly_pow(f, k).coeffs
    return len(row) - row.count(0) if alpha == TOTAL else row.count(alpha)


def cumulative_count(f: FpPoly, n: int, alpha) -> int:
    """Sum of count_coeff over rows 0..n-1.  Through row_blocks it refuses, at
    every n, the zero polynomial and p > 255, where count_coeff answers."""
    if n < 0:
        raise ValueError("row count must be >= 0")
    if alpha == TOTAL:
        return int(row_counts(f, n).sum())
    _check_residue(f.p, alpha)
    total = 0
    for _, block in row_blocks(f, n):
        total += int(np.count_nonzero(block == alpha))
    return total


def _check_residue(p: int, alpha):
    if not isinstance(alpha, int) or not (1 <= alpha < p):
        raise ValueError(f"residue must be in 1..{p - 1} or TOTAL, got {alpha!r}")


# Bounds the coefficient list a short "x^N" term asks parse_poly to build.
MAX_POLY_DEGREE = 1 << 16

_TERM_RE = re.compile(r"^(\d+)?\s*\*?\s*(x(?:\^(\d+))?)?$")


def parse_poly(text: str, p: int) -> FpPoly:
    """Parse either a comma list of coefficients or a symbolic sum of terms.

    "1,1,0,1" reads low degree first; "1+x+x^3" means the same polynomial.
    Coefficients are reduced mod p, so "3+x" with p=2 parses as 1+x.  A token
    that fits neither form raises ValueError naming it, and so does a term of
    degree above MAX_POLY_DEGREE, before the coefficient list is built.  (A
    comma list is as long as its text.)
    """
    check_prime(p)
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if "," in text:
        coeffs = []
        for tok in text.split(","):
            tok = tok.strip()
            try:
                coeffs.append(int(tok) % p)
            except ValueError:
                raise ValueError(f"bad coefficient {tok!r}") from None
        return FpPoly.make(p, coeffs)
    coeffs = {}
    for i, tok in enumerate(text.replace("-", "+-").split("+")):
        tok = tok.strip()
        if not tok:
            if i == 0:  # leading minus leaves an empty first chunk
                continue
            raise ValueError("empty term (doubled sign?)")
        neg = tok.startswith("-")
        m = _TERM_RE.match(tok[1:].strip() if neg else tok)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad term {tok!r}")
        c = int(m.group(1)) if m.group(1) is not None else 1
        if neg:
            c = -c
        e = 0 if m.group(2) is None else int(m.group(3) or 1)
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    top = max(coeffs, default=-1)
    if top > MAX_POLY_DEGREE:
        raise ValueError(f"degree {top} exceeds MAX_POLY_DEGREE = {MAX_POLY_DEGREE}")
    out = [0] * (top + 1)
    for e, c in coeffs.items():
        out[e] = c
    return FpPoly.make(p, out)


def format_poly(f: FpPoly) -> str:
    """Symbolic rendering, low degree first; inverse of parse_poly up to layout."""
    if f.is_zero():
        return "0"
    terms = []
    for e, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if e == 1 else f"{head}x^{e}")
    return "+".join(terms)


# Bitmaps above this cell count would be several hundred MB of PBM text.
MAX_BITMAP_CELLS = 1 << 24


class BitmapSizeError(RuntimeError):
    pass


@dataclass(frozen=True)
class Bitmap:
    """Row-major 0/1 grid; grid row k marks the nonzero digits of f^k."""

    width: int
    height: int
    bits: tuple[bytes, ...]


def render_fractal(f: FpPoly, rows: int) -> Bitmap:
    """Bitmap of the nonzero coefficients of f^0..f^(rows-1), left-aligned."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    width = (rows - 1) * max(f.degree, 0) + 1
    if rows * width > MAX_BITMAP_CELLS:
        raise BitmapSizeError(
            f"bitmap {width}x{rows} exceeds the cap of {MAX_BITMAP_CELLS} cells"
        )
    grid = np.zeros((rows, width), np.uint8)
    for start, block in row_blocks(f, rows):
        grid[start : start + len(block), : block.shape[1]] = block != 0
    return Bitmap(width, rows, tuple(line.tobytes() for line in grid))


def to_pbm(bitmap: Bitmap) -> str:
    """Plain PBM: the header, then each grid row as 0/1 digits split by spaces."""
    grid = np.frombuffer(b"".join(bitmap.bits), np.uint8).reshape(bitmap.height, bitmap.width)
    # each cell is a digit and a separator: a space, or a newline after the last
    text = np.full((bitmap.height, 2 * bitmap.width), ord(" "), np.uint8)
    text[:, 0::2] = np.where(grid != 0, np.uint8(ord("1")), np.uint8(ord("0")))
    text[:, -1] = ord("\n")
    return f"P1\n{bitmap.width} {bitmap.height}\n" + text.tobytes().decode()
