"""Exact integer polynomial work: minimal recurrences, root exclusion, factoring.

Everything here works over plain Python ints (ascending coefficient lists,
index = power) so callers get provable answers.  The minimal recurrence of an
integer sequence comes from Berlekamp-Massey modulo word-sized primes glued by
CRT and is then checked exactly over the integers; whether a polynomial may
vanish on a rational interval is decided by an exact mean-value bound, so no
conclusion rests on a float.

factor_int_poly proves each factor it returns irreducible.  Most often the
factor degrees modulo a few small primes already rule out every proper
degree (Musser's sieve); only when they cannot are the factors mod one prime
lifted by Hensel and recombined (Zassenhaus).  Arithmetic modulo those small
primes runs on int64 numpy vectors, whose sums of products stay below 2^63.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fpoly import divmod_mod, gcd_mod, is_prime


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
    are glued by CRT, and after each prime the lift is checked exactly on
    every term.  The first lift of order <= max_order that passes is the
    answer: with both it and the true minimal polynomial of order <=
    max_order, agreement on 2 * max_order terms means they generate the same
    sequence (Massey 1969), and since reduction mod a prime can only shorten
    a recurrence, no shorter one exists.  A lift that one more prime leaves
    unchanged and that still fails is refused, and so is one whose modulus
    passes 2|seq|_2^max_order when one more prime confirms its order.  An
    integer recurrence of order L <= max_order is the one solution of its
    linear system, so by Cramer's rule on L independent equations and
    Hadamard's bound on their columns no coefficient exceeds |seq|_2^L; the
    primes that see a lower order all divide that nonzero minor.
    """
    if len(seq) < 2 * max_order:
        raise ValueError(f"need {2 * max_order} terms, got {len(seq)}")
    limit = 2 + max_order * (math.isqrt(sum(s * s for s in seq)) + 1).bit_length()
    q, order, lift = 1 << 62, -1, None
    while True:
        q = _prime_below(q)
        rec = _berlekamp_massey([s % q for s in seq], q)
        if len(rec) - 1 < order:
            continue
        if len(rec) - 1 > order:
            order, residues, mod, lift = len(rec) - 1, [0] * len(rec), 1, None
        elif mod.bit_length() > limit:
            break
        inv = pow(mod, -1, q)
        residues = [x + mod * ((r - x) * inv % q) for x, r in zip(residues, rec)]
        mod *= q
        new = [x - mod if x > mod // 2 else x for x in residues]
        if new == lift:
            break
        lift = new
        if order <= max_order and _first_failure(lift, seq) is None:
            return lift
    if order > max_order:
        raise ArithmeticError(f"recurrence order {order} exceeds {max_order}")
    raise ArithmeticError(f"recurrence fails at term {_first_failure(lift, seq)}")


def _first_failure(rec: list[int], seq: list[int]) -> int | None:
    """The first index k >= order at which rec does not annihilate seq, or None."""
    order = len(rec) - 1
    for k in range(len(seq) - order):
        if sum(c * s for c, s in zip(rec, seq[k:k + order + 1])):
            return k + order
    return None


@lru_cache(maxsize=None)
def _prime_below(q: int) -> int:
    """The largest prime below q."""
    q -= 1
    while not is_prime(q):
        q -= 1
    return q


@lru_cache(maxsize=None)
def _prime_above(q: int) -> int:
    """The smallest prime above q."""
    q += 1
    while not is_prime(q):
        q += 1
    return q


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


# ---------------------------------------------------------------------------
# Factoring over the integers


# The sieve stops after this many primes in a row leave the degree set as it
# is: a proper degree that survives them is left to Zassenhaus's recombination,
# which settles it either way.  x^4 - 10x^2 + 1 keeps degree 2 at every prime.
_SIEVE_STALL = 5
# Frobenius images h_(i+1) = h_i^q, one per degree, multiplied together before
# one gcd with what is left of f; only a block that holds factors is refined.
_DDF_BLOCK = 8


def _trimmed(c: list[int]) -> list[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The exact product of two integer polynomials."""
    if not a or not b:
        return []
    return np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)).tolist()


def _product(polys, m: int) -> list[int]:
    out = [1]
    for g in polys:
        out = [c % m for c in _mul(out, g)]
    return out


def _divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of a by a monic b over the integers."""
    rem, n = list(a), len(b) - 1
    quot = [0] * max(len(rem) - n, 0)
    for i in range(len(rem) - n - 1, -1, -1):
        c = quot[i] = rem[i + n]
        if c:
            rem[i : i + n] = [x - c * y for x, y in zip(rem[i : i + n], b)]
    return quot, _trimmed(rem[:n])


def _value(c: list[int], x: int, m: int | None = None) -> int:
    """c(x), reduced mod m at every step when m is given."""
    out = 0
    for a in reversed(c):
        out = out * x + a
        if m:
            out %= m
    return out


def _derivative(c: list[int]) -> list[int]:
    return [i * a for i, a in enumerate(c)][1:]


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a monic f.

    The gcd is monic, so modulo each prime q below 2^30 (none divides the
    leading coefficients 1 and deg f) it reduces to the monic gcd mod q,
    except at the finitely many primes where that gcd is larger.  A gcd of
    degree 0 mod one such prime proves f square-free.  Otherwise the gcds of
    the smallest degree seen are glued by CRT until one more prime leaves
    the lift unchanged and it divides both f and f' exactly: a common divisor
    no smaller than the gcd is the gcd.
    """
    df = _derivative(f)
    q, size, lift = 1 << 30, len(f) + 1, None
    while True:
        q = _prime_below(q)
        g = gcd_mod([c % q for c in f], [c % q for c in df], q)
        if len(g) == 1:
            return f
        if len(g) > size:
            continue
        if len(g) < size:
            size, residues, mod, lift = len(g), [0] * len(g), 1, None
        inv = pow(mod, -1, q)
        residues = [x + mod * ((r - x) * inv % q) for x, r in zip(residues, g)]
        mod *= q
        new = [x - mod if 2 * x > mod else x for x in residues]
        if new == lift and not _divmod_monic(f, new)[1] and not _divmod_monic(df, new)[1]:
            return _divmod_monic(f, new)[0]
        lift = new


def _integer_roots(f: list[int], q: int) -> list[int]:
    """The integer roots of a monic f with f(0) != 0 that is square-free mod q.

    A root r divides f(0), so |r| <= |f(0)|.  Each root of f mod q is simple,
    so Newton's iteration lifts it to the one residue mod q^(2^j) > 2|f(0)|
    that could be an integer root, which is then tested exactly.
    """
    df, roots = _derivative(f), []
    for r in range(q):
        if _value(f, r, q):
            continue
        m = q
        while m <= 2 * abs(f[0]):
            m *= m
            r = (r - _value(f, r, m) * pow(_value(df, r, m), -1, m)) % m
        r = r - m if 2 * r > m else r
        if r and f[0] % r == 0 and _value(f, r) == 0:
            roots.append(r)
    return roots


class _Quotient:
    """Arithmetic in (Z/q)[x]/(f) for f monic mod q of degree n >= 1.

    Residues are int64 vectors of length n.  red[k] holds x^(n+k) mod f, so a
    product reduces by one vector-matrix product; every entry stays below q
    before a product, which keeps each sum below (n + q) q^2 < 2^63.
    """

    def __init__(self, f: list[int], q: int):
        n = len(f) - 1
        self.n, self.q = n, q
        self.red = np.empty((max(n - 1, q, 1), n), np.int64)
        self.red[0] = [-c % q for c in f[:n]]
        for k in range(1, len(self.red)):
            prev = self.red[k - 1]
            self.red[k, 0] = 0
            self.red[k, 1:] = prev[:-1]
            self.red[k] = (self.red[k] + prev[-1] * self.red[0]) % q

    def reduce(self, c: np.ndarray) -> np.ndarray:
        n = self.n
        if len(c) <= n:
            return np.pad(c, (0, n - len(c)))
        return (c[:n] + c[n:] @ self.red[: len(c) - n]) % self.q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(np.convolve(a, b) % self.q)

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        out = self.reduce(np.ones(1, np.int64))
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def frobenius(self) -> np.ndarray:
        """The matrix whose row j is x^(qj) mod f, so that h^q = h @ it."""
        rows = np.empty((self.n, self.n), np.int64)
        rows[0] = self.reduce(np.ones(1, np.int64))
        shift = np.zeros(self.q, np.int64)
        for j in range(1, self.n):
            rows[j] = self.reduce(np.concatenate((shift, rows[j - 1])))
        return rows


def _distinct_degree(f: list[int], q: int) -> list[tuple[int, list[int]]]:
    """(d, g_d): g_d is the product of the irreducible factors of degree d of
    f mod q, for a monic f of degree >= 2 that is square-free mod q.

    x^(q^d) - x is the product of the monic irreducibles whose degree divides
    d (Cantor & Zassenhaus 1981), so once the factors of degree < d are
    divided out, gcd(f, x^(q^d) - x) is g_d.  Past half the degree of what
    is left, what is left is irreducible.
    """
    ring = _Quotient(f, q)
    frob = ring.frobenius()
    x = ring.reduce(np.array([0, 1], np.int64))
    out, rest, h, d = [], f, x, 0
    while 2 * (d + 1) <= len(rest) - 1:
        images, block = [], ring.reduce(np.ones(1, np.int64))
        for _ in range(min(_DDF_BLOCK, (len(rest) - 1) // 2 - d)):
            h = h @ frob % q
            images.append((h - x) % q)
            block = ring.mul(block, images[-1])
        common = gcd_mod(rest, _trimmed(block.tolist()), q)
        for image in images:
            d += 1
            if len(common) > 1:
                g = gcd_mod(common, _trimmed(image.tolist()), q)
                if len(g) > 1:
                    out.append((d, g))
                    common = divmod_mod(common, g, q)[0]
                    rest = divmod_mod(rest, g, q)[0]
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return out


def _equal_degree(g: list[int], d: int, q: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of g mod an odd prime q, all of degree d.

    For a random a, a^((q^d - 1)/2) is +-1 modulo each factor independently,
    so its gcd with g splits g with probability at least 1/2 (Cantor &
    Zassenhaus 1981).
    """
    if len(g) - 1 == d:
        return [g]
    ring = _Quotient(g, q)
    while True:
        a = np.array([rng.randrange(q) for _ in range(ring.n)], np.int64)
        b = ring.pow(a, (q**d - 1) // 2)
        b[0] = (b[0] - 1) % q
        u = gcd_mod(g, _trimmed(b.tolist()), q)
        if 1 < len(u) < len(g):
            return (_equal_degree(u, d, q, rng)
                    + _equal_degree(divmod_mod(g, u, q)[0], d, q, rng))


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b + [0] * (len(a) - len(b)))]


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _add(a, [-y for y in b])


def _mod(a: list[int], m: int) -> list[int]:
    return _trimmed([c % m for c in a])


def _bezout(g: list[int], h: list[int], q: int) -> tuple[list[int], list[int]]:
    """(s, t) with s g + t h = 1 mod q, deg s < deg h and deg t < deg g, for
    g and h coprime mod q, by the extended Euclidean algorithm."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while len(r1) > 1:
        quot, rem = divmod_mod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _mod(_sub(s0, _mul(quot, s1)), q)
        t0, t1 = t1, _mod(_sub(t0, _mul(quot, t1)), q)
    inv = pow(r1[0], -1, q)
    return [c * inv % q for c in s1], [c * inv % q for c in t1]


def _hensel(f: list[int], factors: list[list[int]], q: int, m_end: int) -> list[list[int]]:
    """Monic lifts mod m_end = q^(2^j) of the factors of a monic f mod q.

    The factors, monic and pairwise coprime mod q, multiply to f mod q; f
    need only be known mod m_end.  Each split g h is lifted with its Bezout
    pair by quadratic Hensel steps (von zur Gathen & Gerhard, Modern
    Computer Algebra, Algorithm 15.10), then each side is split again.
    """
    if len(factors) == 1:
        return [_mod(f, m_end)]
    half = len(factors) // 2
    g, h = _product(factors[:half], q), _product(factors[half:], q)
    s, t = _bezout(g, h, q)
    m = q
    while m < m_end:
        m *= m
        e = _mod(_sub(f, _mul(g, h)), m)
        quot, rem = _divmod_monic(_mod(_mul(s, e), m), h)
        g = _mod(_add(g, _add(_mul(t, e), _mul(quot, g))), m)
        h = _mod(_add(h, rem), m)
        b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
        quot, rem = _divmod_monic(_mod(_mul(s, b), m), h)
        s = _mod(_sub(s, rem), m)
        t = _mod(_sub(t, _add(_mul(t, b), _mul(quot, g))), m)
    return _hensel(g, factors[:half], q, m_end) + _hensel(h, factors[half:], q, m_end)


def _recombine(f: list[int], lifted: list[list[int]], m: int, degrees: int) -> list[list[int]]:
    """The irreducible factors over Z of a monic square-free f with f(0) != 0,
    from the monic lifts mod m of its factors mod q.

    m exceeds twice the coefficients of every monic factor of f, so each
    factor over Z is the symmetric residue of the product of a subset of the
    lifts (Zassenhaus 1969).  Subsets are tried by size, smallest first,
    skipping every subset whose degree is not in the bit set degrees; each
    one found is divided out at once.
    """
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            # a factor's constant term divides f(0): test it before the product
            const = math.prod(lifted[i][0] for i in subset) % m
            const = const - m if 2 * const > m else const
            if not const or f[0] % const:
                continue
            g = [c - m if 2 * c > m else c for c in _product((lifted[i] for i in subset), m)]
            quot, rem = _divmod_monic(f, g)
            if not rem:
                found.append(g)
                f = quot
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _zassenhaus(f: list[int], degrees: int, q: int,
                parts: list[tuple[int, list[int]]]) -> list[list[int]]:
    """The irreducible factors of f from its distinct-degree split mod q.

    Every monic factor of f of degree < n has coefficients of size at most
    2^(n-1) |f|_2 (Mignotte), so the lifts go to the first q^(2^j) above
    twice that.
    """
    rng = random.Random(q)
    factors = [u for d, g in parts for u in _equal_degree(g, d, q, rng)]
    bound = 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    m = q
    while m <= bound:
        m *= m
    return _recombine(f, _hensel(f, factors, q, m), m, degrees)


def _factor_squarefree(f: list[int]) -> list[list[int]]:
    """The irreducible factors of a monic square-free f of degree >= 1 with
    f(0) != 0.

    The first prime q that keeps f square-free mod q splits off the integer
    roots.  The rest is sieved (Musser 1975): mod each such q, the degree of
    each factor over Z is a sum of some of the factor degrees mod q, so
    intersecting those subset sums over q = 3, 5, 7, ... leaves only {0, n}
    exactly when the degrees prove f irreducible.  When a proper degree
    survives _SIEVE_STALL primes in a row, the prime with the fewest factors
    splits f by Zassenhaus's method, with the surviving degrees pruning its
    subsets; its random splits are seeded by q, so results are deterministic.
    """
    found, tried, q = [], [], 2
    while len(f) > 2:
        q = _prime_above(q)
        if len(gcd_mod([c % q for c in f], _trimmed([c % q for c in _derivative(f)]), q)) > 1:
            continue
        if not tried:
            for r in _integer_roots(f, q):
                f = _divmod_monic(f, [-r, 1])[0]
                found.append([-r, 1])
            if len(f) <= 2:
                break
            degrees, stall = (1 << len(f)) - 1, 0
        parts = _distinct_degree([c % q for c in f], q)
        sums = 1
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        tried.append((sum((len(g) - 1) // d for d, g in parts), -q, parts))
        stall = stall + 1 if degrees & sums == degrees else 0
        degrees &= sums
        if degrees == 1 | 1 << (len(f) - 1):
            break
        if stall == _SIEVE_STALL:
            _, q, parts = min(tried)
            return found + _zassenhaus(f, degrees, -q, parts)
    return found + ([f] if len(f) > 1 else [])


def factor_int_poly(c: list[int]) -> list[list[int]]:
    """The distinct irreducible factors over Z of an integer polynomial.

    Ascending lists in, ascending lists out: each factor primitive with a
    positive leading coefficient, sorted by degree and then coefficients;
    the content and the multiplicities are dropped, and a constant has no
    factors.  f = x^k g is split into x and g; g becomes the monic
    lc^(deg g - 1) g(x / lc), whose factors G map back to the primitive
    parts of G(lc x); its square-free part is then factored.
    """
    f = _trimmed([int(a) for a in c])
    k = next((i for i, a in enumerate(f) if a), len(f))
    out = [[0, 1]] if k else []
    f = f[k:]
    if len(f) > 1:
        lc, n = f[-1], len(f) - 1
        monic = [a * lc ** (n - 1 - i) for i, a in enumerate(f[:n])] + [1]
        for g in _factor_squarefree(_squarefree_part(monic)):
            g = [a * lc**i for i, a in enumerate(g)]
            content = math.gcd(*g) * (1 if g[-1] > 0 else -1)
            out.append([a // content for a in g])
    return sorted(out, key=lambda g: (len(g), g))
