"""Exact integer polynomial work, cross-checked against sympy's generic paths."""

import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polypow import _zzpoly, build_transfer, enumerate_classes, perron
from polypow._zzpoly import factor_int_poly, may_vanish, minimal_recurrence
from polypow.fpoly import format_poly

X = sympy.Symbol("x")


def sympy_poly(c):
    return sympy.Poly(list(reversed(c)), X)


def sympy_charpoly(mat):
    # ascending coefficients, monic
    return [int(c) for c in reversed(sympy.Matrix(mat).charpoly().all_coeffs())]


def divides(m, c) -> bool:
    return sympy.rem(sympy_poly(c), sympy_poly(m)).is_zero


def annihilates(rec, seq) -> bool:
    return all(
        sum(c * s for c, s in zip(rec, seq[k:])) == 0
        for k in range(len(seq) - len(rec) + 1)
    )


@st.composite
def matrix_sequences(draw, max_dim=5, bound=4):
    """(matrix, u.M^k.v for k < 4*dim) for a random integer system."""
    dim = draw(st.integers(1, max_dim))
    entries = st.integers(-bound, bound)
    mat = [draw(st.lists(entries, min_size=dim, max_size=dim)) for _ in range(dim)]
    u = draw(st.lists(entries, min_size=dim, max_size=dim))
    w = draw(st.lists(entries, min_size=dim, max_size=dim))
    seq = []
    for _ in range(4 * dim):
        seq.append(sum(a * b for a, b in zip(u, w)))
        w = [sum(r * x for r, x in zip(row, w)) for row in mat]
    return mat, seq


@given(matrix_sequences())
@settings(max_examples=60, deadline=None)
def test_minimal_recurrence_against_sympy(case):
    mat, seq = case
    dim = len(mat)
    rec = minimal_recurrence(seq[: 2 * dim + 2], dim)
    order = len(rec) - 1
    assert rec[-1] == 1
    # found on 2n+2 terms, it holds on all 4n, divides the charpoly, and no
    # shorter recurrence exists: the order x order Hankel matrix is regular
    assert annihilates(rec, seq)
    assert divides(rec, sympy_charpoly(mat))
    hankel = sympy.Matrix(order, order, lambda i, j: seq[i + j])
    assert hankel.det() != 0


def test_minimal_recurrence_known_values():
    assert minimal_recurrence([3**k for k in range(4)], 1) == [-3, 1]
    fib = [0, 1, 1, 2, 3, 5, 8, 13]
    assert minimal_recurrence(fib, 2) == [-1, -1, 1]
    # a transient: 1, 0, 0, ... satisfies s(k+1) = 0, polynomial x
    assert minimal_recurrence([1, 0, 0, 0], 2) == [0, 1]
    assert minimal_recurrence([0] * 4, 2) == [1]


def counting_berlekamp_massey(monkeypatch, unlucky=()):
    """Record the prime of every Berlekamp-Massey call; the calls numbered in
    `unlucky` (from 1) see the shorter recurrence [1] instead."""
    real, calls = _zzpoly._berlekamp_massey, []

    def counted(seq, q):
        calls.append(q)
        return [1] if len(calls) in unlucky else real(seq, q)

    monkeypatch.setattr(_zzpoly, "_berlekamp_massey", counted)
    return calls


def test_minimal_recurrence_returns_the_first_proven_lift(monkeypatch):
    # Fibonacci's coefficients are below any prime: the first lift passes
    # the exact check
    calls = counting_berlekamp_massey(monkeypatch)
    assert minimal_recurrence([0, 1, 1, 2, 3, 5, 8, 13], 2) == [-1, -1, 1]
    assert len(calls) == 1


def test_minimal_recurrence_glues_a_root_above_one_prime(monkeypatch):
    # the first prime's lift of -(2^70+3) is its symmetric residue, which
    # fails the exact check; the second prime's CRT lift is the root itself
    calls = counting_berlekamp_massey(monkeypatch)
    root = 2**70 + 3
    assert minimal_recurrence([root**k for k in range(6)], 3) == [-root, 1]
    assert len(calls) == 2


def test_minimal_recurrence_skips_primes_that_lose_order(monkeypatch):
    # a prime dividing a Hankel determinant sees a shorter recurrence; its
    # lift [1] fails the exact check, and the next prime's longer recurrence
    # starts the CRT afresh instead of being glued to it
    calls = counting_berlekamp_massey(monkeypatch, unlucky=(1,))
    fib = [0, 1, 1, 2, 3, 5, 8, 13]
    assert minimal_recurrence(fib, 2) == [-1, -1, 1]
    assert len(calls) == 2


def test_minimal_recurrence_skips_a_later_prime_that_loses_order(monkeypatch):
    # the first prime's lift of -(2^70+3) fails the exact check; the second
    # prime sees a shorter recurrence and is skipped, not glued and not a
    # restart, so the third prime's CRT lift is the root itself
    calls = counting_berlekamp_massey(monkeypatch, unlucky=(2,))
    root = 2**70 + 3
    assert minimal_recurrence([root**k for k in range(6)], 3) == [-root, 1]
    assert len(calls) == 3


def test_squarefree_part_skips_a_prime_with_a_larger_gcd(monkeypatch):
    # gcd(f, f') of f = (x+1)^2 (x+2) is x+1; the second prime is made to
    # see f itself, which is skipped, and the third prime confirms x+1
    real, calls = _zzpoly.gcd_mod, []

    def counted(a, b, q):
        calls.append(q)
        assert len(calls) <= 3  # a glued or restarted CRT would not stop here
        return a if len(calls) == 2 else real(a, b, q)

    monkeypatch.setattr(_zzpoly, "gcd_mod", counted)
    assert _zzpoly._squarefree_part([2, 5, 4, 1]) == [2, 3, 1]
    assert len(calls) == 3


def test_prime_helpers_equal_an_is_prime_scan():
    def scan(q, step):
        q += step
        while not _zzpoly.is_prime(q):
            q += step
        return q

    # the searches of minimal_recurrence and _squarefree_part start at 2^62
    # and 2^30, that of _factor_squarefree at 3
    for q in (*range(3, 400), (1 << 30) - 35, 1 << 30, (1 << 62) - 57, 1 << 62):
        assert _zzpoly._prime_below(q) == scan(q, -1)
        assert _zzpoly._prime_above(q) == scan(q, 1)
    assert [_zzpoly._prime_above(q) for q in (1, 2, 3, 4)] == [2, 3, 5, 5]


def test_minimal_recurrence_refuses_what_it_cannot_certify():
    with pytest.raises(ValueError):
        minimal_recurrence([1, 2, 4], 2)  # fewer than 2 * max_order terms
    with pytest.raises(ArithmeticError):
        # the shortest recurrence of this prefix has order 6 > 3
        minimal_recurrence([0, 0, 0, 0, 0, 1, 0, 0], 3)
    # the shortest recurrences s1 = s0/2 and s2 = -s1/7 + 17 s0/7 are not
    # integral, so no lift ever repeats: the coefficient bound stops the search
    for seq, max_order in (([2, 1], 1), ([1, 3, 2, 7], 2)):
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="fails at term"):
            minimal_recurrence(seq, max_order)
        assert time.perf_counter() - start < 1.0


def test_minimal_recurrence_checks_the_last_term_exactly():
    # a last term off by a multiple of every prime tried: each prime sees the
    # Fibonacci recurrence, and only the exact check over the integers finds
    # that the last term breaks it
    primes, q = [], 1 << 62
    while len(primes) < 4:
        q -= 1
        if _zzpoly.is_prime(q):
            primes.append(q)
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert minimal_recurrence(fib, 3) == [-1, -1, 1]
    fib[-1] += math.prod(primes)
    with pytest.raises(ArithmeticError, match="fails at term 9"):
        minimal_recurrence(fib, 3)


POLYS = (
    [-3, 1],
    [3, -4, 1],  # roots 1 and 3
    [-2, 0, 1],  # +- sqrt(2)
    [-4, -2, 1],  # 1 +- sqrt(5)
    [4, 2, -2, -3, 1],
    [0, -3, 0, 1],  # 0 and +- sqrt(3)
    [2, -6, 2, 1],
    [1, 0, 1],  # no real root
)


@pytest.mark.parametrize("c", POLYS, ids=str)
def test_may_vanish_against_sympy_real_roots(c):
    roots = [r for r in sympy_poly(c).real_roots() if r >= 0]
    for r in roots:
        # a bracket of width 2^-40 around each nonnegative root keeps it
        lo = Fraction(int(sympy.floor(r * 2**40)), 2**40)
        assert may_vanish(c, lo, lo + Fraction(1, 2**40))
        assert may_vanish(c, lo, lo + 1)
    excluded = 0
    for k in range(32):
        # an interval the test excludes holds no root
        lo, hi = Fraction(k, 8), Fraction(k + 1, 8)
        if not may_vanish(c, lo, hi):
            excluded += 1
            assert not any(lo <= r <= hi for r in roots), (c, lo)
    assert excluded >= 16  # the bound is loose only near a root


def test_factor_int_poly_splits_and_respects_irreducibility():
    facs = factor_int_poly([-1, 0, 1])  # x^2 - 1
    assert sorted(facs) == sorted([[-1, 1], [1, 1]])
    # every factor leads with a positive coefficient, also those of 1 - x^2
    assert sorted(factor_int_poly([1, 0, -1])) == sorted([[-1, 1], [1, 1]])
    assert factor_int_poly([1, 0, 1]) == [[1, 0, 1]]  # x^2 + 1
    for f in factor_int_poly([3, -4, 1]):
        assert divides(f, [3, -4, 1])


def test_divides_helper_is_strict():
    assert divides([1, 1], [1, 2, 1])  # (x+1) | (x+1)^2
    assert not divides([1, 1], [1, 0, 1])
    assert divides([2, 2], [1, 2, 1])  # rational quotient is fine


def sympy_factors(c):
    """The distinct irreducible factors of c by sympy.factor_list, normalized
    as factor_int_poly returns them."""
    if not any(c):
        return []
    _, facs = sympy.factor_list(sympy_poly(c))
    out = [[int(a) for a in reversed(g.all_coeffs())] for g, _ in facs]
    out = [g if g[-1] > 0 else [-a for a in g] for g in out if len(g) > 1]
    return sorted(out, key=lambda g: (len(g), g))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def factored_polys(draw):
    """c x^k times a product of random monic factors, some repeated and some
    linear with an integer root."""
    monic = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(lambda c: c + [1])
    linear = st.integers(-5, 5).map(lambda r: [-r, 1])
    factors = draw(st.lists(st.tuples(st.one_of(monic, linear), st.integers(1, 3)), max_size=4))
    f = [0] * draw(st.integers(0, 3)) + [draw(st.sampled_from([1, -1, 2, -3, 6]))]
    for g, mult in factors:
        for _ in range(mult):
            f = poly_mul(f, g)
    return f


@given(factored_polys())
@settings(max_examples=150, deadline=None)
def test_factor_int_poly_against_sympy_factor_list(c):
    assert factor_int_poly(c) == sympy_factors(c)


@pytest.mark.parametrize("c", [
    [],
    [5],
    [0, 0, 3],
    [6, 4, 2],  # content 2
    [4, 0, 0, 0, 1],  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
    [576, 0, -960, 0, 352, 0, -40, 0, 1],  # Swinnerton-Dyer for 2, 3, 5
    [-1] + [0] * 29 + [1],  # x^30 - 1, eight cyclotomic factors
    [-6, 1, 5, -1, -1, 2],  # not monic
], ids=str)
def test_factor_int_poly_special_cases(c):
    assert factor_int_poly(c) == sympy_factors(c)


def test_swinnerton_dyer_of_degree_32_is_irreducible():
    # the minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 + sqrt11 splits
    # into 16 quadratics mod every prime, so every even degree survives the
    # sieve and recombination must rule out each subset of up to 8 of them
    sd = sympy.minimal_polynomial(sum(map(sympy.sqrt, (2, 3, 5, 7, 11))), X)
    c = [int(a) for a in reversed(sympy.Poly(sd, X).all_coeffs())]
    assert factor_int_poly(c) == [c]


def test_x4_minus_10x2_plus_1_needs_recombination():
    # irreducible over Z, yet mod every prime its factors have degree <= 2,
    # so only Zassenhaus's recombination can prove it
    f = [1, 0, -10, 0, 1]
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        parts = _zzpoly._distinct_degree([c % q for c in f], q)
        assert max(d for d, _ in parts) <= 2
    assert factor_int_poly(f) == sympy_factors(f) == [f]


@pytest.mark.parametrize("f", enumerate_classes(6), ids=format_poly)
def test_factor_int_poly_on_every_recurrence_up_to_degree_6(f):
    rec = list(perron(build_transfer(f)).recurrence)
    assert factor_int_poly(rec) == sympy_factors(rec)
