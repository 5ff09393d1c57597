"""Dense polynomials over Z/p and the coefficient rows of their powers.

Coefficients are stored low degree first; the zero polynomial is the empty
tuple.  Row k is the digit string of f(x)^k reduced mod p, again low degree
first.  row_blocks builds the rows in p-adic blocks, by Frobenius
(f^(tC+a) = f^a * f^t(x^C) for C a power of p), and yields them as uint8
matrices of consecutive rows; iter_rows yields them one row at a time.
count_coeff counts one residue, or every nonzero digit, in a row,
cumulative_count sums that over rows 0..n-1, and the nonzero pattern of the
rows renders as a bitmap.
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
        if self.coeffs and (self.coeffs[-1] == 0 or any(
                not (0 <= c < self.p) for c in self.coeffs)):
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
        if self.is_zero() or c == 1:
            return self
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


def poly_pow(f: FpPoly, k: int) -> FpPoly:
    """f^k mod p, using f(x)^(mp^e) = (f^m)(x^(p^e)) to shortcut p-divisible powers."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if k == 0:
        return FpPoly.one(f.p)
    if f.is_zero():
        return f
    e = 0
    while k % f.p == 0:
        k //= f.p
        e += 1
    g = _pow_binary(f, k)
    for _ in range(e):
        g = g.inflate(f.p)
    return g


def _pow_binary(f: FpPoly, k: int) -> FpPoly:
    result = FpPoly.one(f.p)
    base = f
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def digits_to_text(digits) -> str:
    digits = list(digits)
    # single characters are unambiguous for p <= 10; beyond that use commas
    if all(d < 10 for d in digits):
        return "".join(str(d) for d in digits)
    return ",".join(str(d) for d in digits)


# Rows hold one digit per byte, so larger primes would wrap their digits.
MAX_ROW_PRIME = 255
# Digits in one block of row_blocks: C rows of the widest width, C the largest
# power of p that fits, but never below p.  8 MB of uint8, built in uint16
# for odd p.  A smaller cap means more, narrower adds: at 2^19, 2^14 rows of
# a degree-5 polynomial mod 2 take 20 s instead of 0.6 s.
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
    per block instead of a convolution per row.  Digits never wrap: XOR at
    p = 2, else uint16 sums of at most (p-1) + (p-1)^2 reduced mod p after
    every term.  Refuses, before building anything, the zero polynomial and
    p > 255.
    """
    if f.is_zero():
        raise ValueError("rows of the zero polynomial are not defined")
    if f.p > MAX_ROW_PRIME:
        raise ValueError(
            f"rows store digits as bytes, so p must be <= {MAX_ROW_PRIME}, got {f.p}")
    return _row_blocks(f, n)


def _add_shifted(out: np.ndarray, src: np.ndarray, digits, shift: int, p: int) -> None:
    """out += sum_i digits[i] * (src shifted right by i*shift columns), mod p."""
    w = src.shape[1]
    for i in np.flatnonzero(digits).tolist():
        view = out[:, i * shift : i * shift + w]
        if p == 2:
            view ^= src
        else:
            view += int(digits[i]) * src
            view %= p


def _row_blocks(f: FpPoly, n: int):
    p, d = f.p, f.degree
    if n <= 0:
        return
    width = (n - 1) * d + 1
    size = p  # C, the rows of the base block
    while size < n and size * p * width <= ROW_BLOCK_CELLS:
        size *= p
    m = min(size, n)
    dtype = np.uint8 if p == 2 else np.uint16
    # rows 0..p-1 by convolution, then each level by Lucas doubling:
    # rows [tS, (t+1)S) are rows [0, S) times f^t(x^S)
    base = np.zeros((m, (m - 1) * d + 1), dtype)
    row, f_digits = np.ones(1, np.int64), np.asarray(f.coeffs, np.int64)
    for k in range(min(p, m)):
        base[k, : k * d + 1] = row
        row = np.convolve(row, f_digits) % p
    step = p
    while step < m:
        for t in range(1, p):
            lo, hi = t * step, min((t + 1) * step, m)
            if lo >= m:
                break
            _add_shifted(base[lo:hi], base[: hi - lo, : (hi - lo - 1) * d + 1],
                         base[t, : t * d + 1], step, p)
        step *= p
    # block t is weighted by row t < tC, so rows 0..n_blocks-1 are kept as
    # they are made; blocks are yielded read-only, since they are read again
    n_blocks = -(-n // size)
    block = _frozen(base)
    prefix = [block[k, : k * d + 1] for k in range(min(m, n_blocks))]
    yield 0, block
    for t in range(1, n_blocks):
        start = t * size
        rows = min(size, n - start)
        out = np.zeros((rows, (start + rows - 1) * d + 1), dtype)
        _add_shifted(out, base[:rows, : (rows - 1) * d + 1], prefix[t], size, p)
        block = _frozen(out)
        prefix += [block[k - start, : k * d + 1] for k in range(start, min(start + rows, n_blocks))]
        yield start, block


def _frozen(digits: np.ndarray) -> np.ndarray:
    """A read-only uint8 view or copy of digits."""
    out = digits.view() if digits.dtype == np.uint8 else digits.astype(np.uint8)
    out.flags.writeable = False
    return out


def count_coeff(f: FpPoly, k: int, alpha) -> int:
    """Occurrences of residue alpha in row k, or of any nonzero digit for TOTAL."""
    row = poly_pow(f, k).coeffs
    if alpha == TOTAL:
        return sum(1 for d in row if d)
    _check_residue(f.p, alpha)
    return sum(1 for d in row if d == alpha)


def cumulative_count(f: FpPoly, n: int, alpha) -> int:
    """Sum of count_coeff over rows 0..n-1."""
    if n < 0:
        raise ValueError("row count must be >= 0")
    if alpha != TOTAL:
        _check_residue(f.p, alpha)
    total = 0
    for _, block in row_blocks(f, n):
        total += int(np.count_nonzero(block if alpha == TOTAL else block == alpha))
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
