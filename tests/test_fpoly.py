"""Field arithmetic, row generation, digit counting, and the text format.

Oracles here are deliberately naive: schoolbook convolution (one full
convolution per row for the row blocks), brute-force digit tallies over
poly_pow rows, binomial coefficients for 1+x, and a string join for PBM text.
"""

import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polypow import (
    TOTAL,
    FpPoly,
    count_coeff,
    cumulative_count,
    format_poly,
    is_prime,
    iter_rows,
    parse_poly,
    poly_pow,
    render_fractal,
    row_blocks,
    to_pbm,
)
from polypow import fpoly
from polypow.cli import main
from polypow.fpoly import MAX_POLY_DEGREE, Bitmap, digits_to_text

PRIMES = [2, 3, 5, 7, 11, 13]

small_prime = st.sampled_from(PRIMES)


def naive_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@st.composite
def fp_polys(draw, max_deg=6, nonzero=False):
    p = draw(small_prime)
    deg = draw(st.integers(0, max_deg))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=deg + 1, max_size=deg + 1))
    if nonzero and not any(coeffs):
        coeffs[draw(st.integers(0, deg))] = draw(st.integers(1, p - 1))
    return FpPoly.make(p, coeffs)


# ---------------------------------------------------------------- basics ----


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
    # Carmichael number: composite that fools Fermat-only tests
    assert not is_prime(561)
    assert is_prime(2**31 - 1)


def test_is_prime_refuses_beyond_its_exact_range():
    # the least strong pseudoprime to all twelve witnesses 2..37: the test
    # would call it prime, so it and everything above it are refused
    bound = 318665857834031151167461
    assert sympy.factorint(bound) == {399165290221: 1, 798330580441: 1}
    for n in (bound, bound + 2, 3317044064679887385961981, 10**30):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)
    below = sympy.prevprime(bound)
    assert is_prime(below)
    assert not any(is_prime(n) for n in range(below + 1, bound))
    # the CLI reads --prime through the same check, so it exits 2
    assert main(["series", "--poly", "1+x", "--prime", str(bound)]) == 2
    assert main(["series", "--poly", "1+x", "--prime", str(below), "--terms", "2"]) == 0


def test_make_normalizes_mod_p_and_strips_zeros():
    f = FpPoly.make(3, [4, -1, 3, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert not f.is_zero()
    assert FpPoly.make(5, [0, 0]).is_zero()
    assert FpPoly.make(5, []).is_zero()
    assert FpPoly.one(7).coeffs == (1,)


def test_make_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FpPoly.make(4, [1, 1])
    with pytest.raises(ValueError):
        FpPoly.make(1, [1])


@given(fp_polys(), fp_polys())
def test_mul_matches_schoolbook(f, g):
    if f.p != g.p:
        g = FpPoly.make(f.p, g.coeffs)
    assert (f * g).coeffs == naive_mul(f.coeffs, g.coeffs, f.p)


@pytest.mark.parametrize("p", [1000000007, 2**61 - 1])
def test_mul_and_pow_past_the_int64_bound_match_schoolbook(p):
    # ten products near (p-1)^2 overflow int64 at p = 10^9+7; one does at 2^61-1
    f = FpPoly.make(p, [p - 1] * 9 + [p - 2])
    g = FpPoly.make(p, [p - 1, p - 2, p - 1, 3, p - 1, p - 1, p - 4, p - 1, p - 1, p - 1])
    assert min(len(f.coeffs), len(g.coeffs)) * (p - 1) ** 2 >= 2**62
    assert (f * g).coeffs == naive_mul(f.coeffs, g.coeffs, p)
    want = (1,)
    for k in range(1, 8):
        want = naive_mul(want, f.coeffs, p)
        assert poly_pow(f, k).coeffs == want


@given(fp_polys(max_deg=4), st.integers(0, 12))
def test_poly_pow_matches_repeated_multiplication(f, k):
    expected = FpPoly.one(f.p)
    for _ in range(k):
        expected = expected * f
    assert poly_pow(f, k) == expected


@given(fp_polys(max_deg=4, nonzero=True), st.integers(1, 4))
@settings(max_examples=60)
def test_frobenius_identity(f, k):
    # (f^k)^p == (f^k)(x^p) over F_p
    g = poly_pow(f, k)
    assert poly_pow(g, f.p) == g.inflate(f.p)


def test_inflate_and_reverse():
    f = FpPoly.make(2, [1, 1, 0, 1])
    assert f.inflate(2).coeffs == (1, 0, 1, 0, 0, 0, 1)
    assert f.reverse().coeffs == (1, 0, 1, 1)
    assert f.reverse().reverse() == f


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        poly_pow(FpPoly.make(2, [1, 1]), -1)


# ------------------------------------------------------------------ rows ----


def test_poly_pow_rows():
    f = FpPoly.make(2, [1, 1])
    assert poly_pow(f, 0).coeffs == (1,)
    assert poly_pow(f, 2).coeffs == (1, 0, 1)
    assert digits_to_text(poly_pow(f, 4).coeffs) == "10001"
    # binomials mod 3
    assert poly_pow(FpPoly.make(3, [1, 1]), 3).coeffs == (1, 0, 0, 1)


@given(fp_polys(nonzero=True), st.integers(0, 20))
@settings(max_examples=60)
def test_iter_rows_agrees_with_poly_pow(f, n):
    for k, row in enumerate(iter_rows(f, n)):
        assert tuple(int(d) for d in row) == poly_pow(f, k).coeffs


def test_iter_rows_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        list(iter_rows(FpPoly.make(3, [0]), 4))


def test_iter_rows_digits_exact_at_largest_byte_prime():
    # 251 is the largest prime whose digits fit in a byte
    for coeffs in ((1, 1), (250, 7, 250)):
        f = FpPoly.make(251, coeffs)
        for k, row in enumerate(iter_rows(f, 260)):
            assert [int(d) for d in row] == list(poly_pow(f, k).coeffs)


def test_row_consumers_refuse_primes_above_a_byte():
    # digits of p >= 257 would wrap in the uint8 rows: row 256 of 1+x mod 257
    # would start 1,0,1 where it starts 1,256,1
    f = FpPoly.make(257, [1, 1])
    assert poly_pow(f, 256).coeffs[:3] == (1, 256, 1)
    with pytest.raises(ValueError):
        iter_rows(f, 300)
    with pytest.raises(ValueError):
        cumulative_count(f, 300, TOTAL)


def schoolbook_rows(f, n):
    """Rows 0..n-1 of f, each one full convolution of the row before, mod p."""
    base = np.asarray(f.coeffs, dtype=np.int64)
    row = np.asarray([1], dtype=np.int64)
    for _ in range(n):
        yield row.tolist()
        row = np.convolve(row, base) % f.p


def _row_counts(p):
    """n in {1, p-1, p, p^k-1, p^k, p^k+1}, kept to a few hundred rows."""
    ns = {1, p - 1, p, p + 1}
    q = p * p
    while q <= 300:
        ns |= {q - 1, q, q + 1}
        q *= p
    return sorted(ns)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
@pytest.mark.parametrize("d", range(1, 7))
def test_row_blocks_match_schoolbook_rows(monkeypatch, p, d):
    # a small cap makes many blocks, each built from the base by Frobenius
    monkeypatch.setattr(fpoly, "ROW_BLOCK_CELLS", 2**10)
    rng = np.random.default_rng(1000 * p + d)
    coeffs = [int(c) for c in rng.integers(0, p, d)] + [int(rng.integers(1, p))]
    f = FpPoly.make(p, coeffs)
    for n in _row_counts(p):
        want = list(schoolbook_rows(f, n))
        blocks = list(row_blocks(f, n))
        assert [start for start, _ in blocks] == list(
            np.cumsum([0] + [len(b) for _, b in blocks[:-1]]))
        for start, block in blocks:
            last = start + len(block) - 1
            assert block.dtype == np.uint8 and block.shape[1] == last * d + 1
            # C rows of the widest width fit the cap, unless even p rows do not
            assert block.size <= max(fpoly.ROW_BLOCK_CELLS, p * ((n - 1) * d + 1))
            for i, row in enumerate(block.tolist()):
                k = start + i
                assert row == want[k] + [0] * (last - k) * d
        got = list(iter_rows(f, n))
        assert [r.tolist() for r in got] == want
        assert all(r.dtype == np.uint8 for r in got)
    for k in (0, 1, p - 1, p, _row_counts(p)[-1] - 1):
        assert want[k] == list(poly_pow(f, k).coeffs)
    assert len(blocks) > 1  # n = p^k + 1 rows never fit in one block


def test_row_blocks_make_many_blocks_under_the_cap(monkeypatch):
    f = FpPoly.make(3, [1, 2, 0, 1])
    monkeypatch.setattr(fpoly, "ROW_BLOCK_CELLS", 3 * 3 * (3 * 100 + 1))
    blocks = list(row_blocks(f, 101))
    # C = 9 rows per block: the base (rows 0..8), ten more blocks of 9, one of 2
    assert [len(b) for _, b in blocks] == [9] * 11 + [2]
    assert all(b.size <= fpoly.ROW_BLOCK_CELLS for _, b in blocks)
    assert [r.tolist() for _, b in blocks for r in b][-1] == list(schoolbook_rows(f, 101))[-1]


def test_row_blocks_digits_never_wrap_at_251(monkeypatch):
    # every coefficient 250 = -1 mod 251 makes each uint16 sum as large as it gets
    monkeypatch.setattr(fpoly, "ROW_BLOCK_CELLS", 251 * (6 * 299 + 1))
    f = FpPoly.make(251, [250] * 7)
    want = list(schoolbook_rows(f, 300))
    got = [r.tolist() for r in iter_rows(f, 300)]
    assert got == want
    assert max(max(r) for r in got) == 250


def test_row_blocks_refusals_come_before_any_row():
    with pytest.raises(ValueError, match="zero polynomial"):
        row_blocks(FpPoly.make(3, [0]), 4)
    with pytest.raises(ValueError, match="p must be <= 255"):
        row_blocks(FpPoly.make(257, [1, 1]), 4)
    assert list(row_blocks(FpPoly.make(3, [1, 1]), 0)) == []


def test_row_blocks_stay_under_the_cap_at_depth_14():
    f = FpPoly.make(2, [1, 1, 0, 1])
    rows = 0
    for start, block in row_blocks(f, 2**14):
        assert start == rows and block.size <= fpoly.ROW_BLOCK_CELLS
        rows += len(block)
    assert rows == 2**14
    # Sierpinski: rows below 2^14 of 1+x hold 3^14 ones
    assert cumulative_count(FpPoly.make(2, [1, 1]), 2**14, TOTAL) == 3**14


def join_pbm(bitmap):
    lines = [f"P1\n{bitmap.width} {bitmap.height}"]
    for row in bitmap.bits:
        lines.append(" ".join("1" if b else "0" for b in row))
    return "\n".join(lines) + "\n"


@given(st.integers(1, 9), st.integers(1, 9), st.data())
@settings(max_examples=40)
def test_to_pbm_matches_the_joined_text(width, height, data):
    bits = tuple(bytes(data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width)))
                 for _ in range(height))
    bitmap = Bitmap(width, height, bits)
    assert to_pbm(bitmap) == join_pbm(bitmap)


@pytest.mark.parametrize("p,coeffs,rows", [(2, (1, 1), 64), (3, (1, 1, 1), 81), (5, (2, 0, 3), 30)])
def test_render_fractal_marks_the_schoolbook_nonzeros(p, coeffs, rows):
    f = FpPoly.make(p, coeffs)
    bitmap = render_fractal(f, rows)
    for line, want in zip(bitmap.bits, schoolbook_rows(f, rows)):
        mark = [1 if c else 0 for c in want]
        assert list(line) == mark + [0] * (bitmap.width - len(mark))
    assert to_pbm(bitmap) == join_pbm(bitmap)


def test_row_of_zero_constant_power():
    # f^0 is always the single digit 1, even for constants
    assert poly_pow(FpPoly.make(5, [3]), 0).coeffs == (1,)


# -------------------------------------------------------------- counting ----


def brute_count(f, k, alpha):
    row = poly_pow(f, k).coeffs or (0,)
    if alpha == TOTAL:
        return sum(1 for d in row if d)
    return sum(1 for d in row if d == alpha)


@given(fp_polys(max_deg=4, nonzero=True), st.integers(0, 15))
@settings(max_examples=60)
def test_count_coeff_matches_brute_force(f, k):
    for alpha in list(range(1, f.p)) + [TOTAL]:
        assert count_coeff(f, k, alpha) == brute_count(f, k, alpha)


def test_cumulative_count_is_prefix_sum():
    f = FpPoly.make(2, [1, 1])
    for n in range(0, 20):
        assert cumulative_count(f, n, TOTAL) == sum(
            brute_count(f, k, TOTAL) for k in range(n)
        )
    # Sierpinski: rows < 2^j hold 3^j ones in total
    for j in range(7):
        assert cumulative_count(f, 2**j, TOTAL) == 3**j


def test_count_rejects_bad_residue():
    f = FpPoly.make(3, [1, 1])
    for alpha in (0, 3, -1, "x"):
        with pytest.raises(ValueError):
            count_coeff(f, 1, alpha)


# ---------------------------------------------------------- text format -----


@pytest.mark.parametrize(
    "text,p,coeffs",
    [
        ("1+x", 2, (1, 1)),
        ("1+x+x^2", 2, (1, 1, 1)),
        ("x^3", 5, (0, 0, 0, 1)),
        ("2+3x^2", 5, (2, 0, 3)),
        ("1 + x^2", 3, (1, 0, 1)),
        ("1,0,2", 3, (1, 0, 2)),
        ("4+x", 3, (1, 1)),
        ("x+x", 3, (0, 2)),
    ],
)
def test_parse_poly_accepted_forms(text, p, coeffs):
    assert parse_poly(text, p).coeffs == coeffs


@pytest.mark.parametrize("bad", ["", "x^-1", "1+y", "x**2", "1++x", "2.5x"])
def test_parse_poly_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_poly(bad, 5)


def test_parse_poly_refuses_degrees_past_the_cap():
    assert parse_poly(f"1+x^{MAX_POLY_DEGREE}", 2).degree == MAX_POLY_DEGREE
    # refused before the 3*10^8-entry coefficient list is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_POLY_DEGREE"):
            parse_poly("1+x^300000000", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(fp_polys())
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f), f.p) == f


def test_format_poly_layout():
    assert format_poly(FpPoly.make(5, [2, 1, 0, 3])) == "2+x+3x^3"
    assert format_poly(FpPoly.make(2, [0])) == "0"
