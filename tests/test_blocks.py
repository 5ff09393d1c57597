"""Accessible-window counting: scans, the exact closure engine, recursions.

The reference oracle enumerates windows of zero-padded rows with plain Python
string slicing, nothing shared with the window engine that runs both the scan
and the closure.
"""

import tracemalloc
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypow import (
    FpPoly,
    InferenceError,
    RecursionSpec,
    a_1px,
    a_from_recursion,
    a_from_recursion_range,
    infer_recursion,
    line_complexity,
    line_complexity_range,
    poly_pow,
    recursion_1px,
    scan_accessible,
    series_1px,
    verify_ab_equivalence,
)
from polypow import blocks
from polypow.fpoly import parse_poly

from oracles import (count_by_candidates, count_by_sets, digits_to_text, infer_by_thresholds,
                     series_1xx2)

ONE_PLUS_X_2 = FpPoly.make(2, [1, 1])
ONE_PLUS_X_3 = FpPoly.make(3, [1, 1])
ONE_PLUS_X_5 = FpPoly.make(5, [1, 1])
CXX2_12 = FpPoly.make(2, [1, 1, 1])
CXX2_23 = FpPoly.make(3, [2, 1, 1])


def windows_oracle(f, n, rows):
    """Every length-n digit string seen in rows 0..rows-1, zero padding included."""
    seen = set()
    for k in range(rows):
        digits = list(poly_pow(f, k).coeffs or (0,))
        padded = [0] * n + digits + [0] * n
        for i in range(len(padded) - n + 1):
            seen.add(digits_to_text(padded[i : i + n]))
    return seen


def texts(rows):
    """The rows of a block matrix as a set of digit strings."""
    return {digits_to_text(row) for row in rows}


# ------------------------------------------------------------------ scan ----


@pytest.mark.parametrize(
    "f,n,rows",
    [
        (ONE_PLUS_X_2, 3, 40),
        (ONE_PLUS_X_2, 5, 64),
        (CXX2_12, 4, 50),
        (CXX2_23, 3, 30),
        (ONE_PLUS_X_5, 2, 30),
    ]
    # horizons that are not p^k - 1: row 0 alone, then 0..1, 0..p, 0..2p+1
    + [
        (f, n, rows)
        for f, n in ((ONE_PLUS_X_3, 4), (CXX2_23, 5), (ONE_PLUS_X_5, 3))
        for rows in (0, 1, f.p, 2 * f.p + 1)
    ],
)
def test_scan_matches_string_oracle(f, n, rows):
    got = scan_accessible(f, n, max_row=rows)
    assert got.shape[1] == n
    # the scan horizon is inclusive: rows 0..max_row
    assert texts(got) == windows_oracle(f, n, rows + 1)


def test_scan_example_missing_blocks():
    # of the 16 binary 4-blocks of 1+x mod 2, exactly two never occur
    got = scan_accessible(ONE_PLUS_X_2, 4)
    assert len(got) == 14
    universe = {format(i, "04b") for i in range(16)}
    assert universe - texts(got) == {"1101", "1011"}


def test_scan_monotone_in_rows():
    for r in (8, 16, 32, 64):
        small = texts(scan_accessible(CXX2_12, 5, max_row=r))
        large = texts(scan_accessible(CXX2_12, 5, max_row=2 * r))
        assert small <= large


def test_scan_rows_sorted_and_distinct():
    got = scan_accessible(ONE_PLUS_X_2, 2, max_row=8)
    lines = [digits_to_text(row) for row in got]
    assert lines == sorted(set(lines))
    assert got.dtype == np.uint8
    # the empty block is the one 0-block
    assert scan_accessible(ONE_PLUS_X_2, 0).shape == (1, 0)
    # a negative horizon is refused at every length
    for n in (0, 2):
        with pytest.raises(ValueError, match="horizon"):
            scan_accessible(ONE_PLUS_X_2, n, max_row=-1)
    with pytest.raises(ValueError, match="block length"):
        scan_accessible(ONE_PLUS_X_2, -1)
    with pytest.raises(ValueError, match="block length"):
        line_complexity_range(ONE_PLUS_X_2, -1)


@pytest.mark.parametrize(
    "f,n,max_row",
    [(ONE_PLUS_X_2, 6, 10), (ONE_PLUS_X_3, 4, 27), (CXX2_23, 3, 17)],
)
def test_scan_cuts_only_the_blocks_it_returns(monkeypatch, f, n, max_row):
    # one step per base-p digit of max_row, each cutting the blocks of rows
    # 0..q and 0..q-1, except that the last step needs only rows 0..max_row
    steps, q = 0, max_row
    while q:
        steps, q = steps + 1, q // f.p
    built = recording_maps(monkeypatch)
    got = scan_accessible(f, n, max_row=max_row)
    assert texts(got) == windows_oracle(f, n, max_row + 1)
    assert len(built) == 2 * steps - 1
    assert built[-1] == n


def test_scan_wide_alphabet_path():
    # long blocks over a wide alphabet: 13^18 > 2^64, from a horizon below p
    f = FpPoly.make(13, [1, 1])
    got = scan_accessible(f, 18, max_row=6)
    assert texts(got) == windows_oracle(f, 18, 7)


def test_scan_of_a_far_horizon_reads_few_rows(monkeypatch):
    asked = []
    iter_rows = blocks.iter_rows

    def recording(f, n):
        asked.append(n)
        return iter_rows(f, n)

    monkeypatch.setattr(blocks, "iter_rows", recording)
    got = scan_accessible(ONE_PLUS_X_2, 12, max_row=10**12)
    assert len(got) == 12 * 12 - 12 + 2
    assert asked and max(asked) <= 2


def test_scan_refuses_oversized_blocks_before_allocating():
    # row 0 alone has 10^5 + 2 windows of 10^5 digits; from rows 0..5 the
    # refusal comes at the expansion of the 12502-blocks of row 0
    for max_row in (0, 5):
        with pytest.raises(blocks.ClosureSizeError):
            scan_accessible(ONE_PLUS_X_2, 10**5, max_row=max_row)


def test_scan_builds_no_fixpoint(monkeypatch):
    # lc = 5 here, and the fixpoint would cut 92 million candidate 5-blocks
    f = FpPoly.make(17, [3, 5, 0, 16])
    monkeypatch.setattr(blocks._Closure, "fixpoint",
                        property(lambda self: pytest.fail("the scan read the fixpoint")))
    got = scan_accessible(f, 4, max_row=300)
    assert texts(got) == windows_oracle(f, 4, 301)


# --------------------------------------------------------------- closure ----


@pytest.mark.parametrize(
    "f,n,rows",
    [
        (ONE_PLUS_X_2, 6, 512),
        (CXX2_12, 6, 512),
        (CXX2_23, 5, 729),
        (ONE_PLUS_X_3, 5, 729),
        (ONE_PLUS_X_5, 4, 625),
    ],
)
def test_closure_members_equal_deep_scan(f, n, rows):
    # the horizon is generous enough that the scanned set is complete; the
    # oracle shares nothing with the maps that the closure and the scan run.
    # The level holds one block per orbit of the units, whose multiples are
    # the whole set
    closure = blocks._Closure(f)
    exact = {digits_to_text(b) for b in closure._multiples(closure.level(n))}
    assert exact == windows_oracle(f, n, rows + 1)


def test_line_complexity_base_cases():
    assert line_complexity(ONE_PLUS_X_2, 0) == 1
    for f in (ONE_PLUS_X_2, ONE_PLUS_X_3, ONE_PLUS_X_5):
        assert line_complexity(f, 1) == f.p  # every digit occurs


def test_line_complexity_closed_form_mod2():
    values = line_complexity_range(ONE_PLUS_X_2, 400)
    assert values == [1] + [n * n - n + 2 for n in range(1, 401)]


# mod 17 the blocks are divided in uint16, (p - 1)**2 being over a byte
@pytest.mark.parametrize("p,n_max", [(3, 150), (5, 80), (17, 60)])
def test_range_equals_the_closed_recursion(p, n_max):
    f = FpPoly.make(p, [1, 1])
    assert line_complexity_range(f, n_max) == a_from_recursion_range(recursion_1px(p), n_max)


@pytest.mark.parametrize(
    "f,n_max,rows",
    [
        (ONE_PLUS_X_2, 16, 64),
        (ONE_PLUS_X_5, 6, 126),
        (CXX2_12, 14, 64),
        (FpPoly.make(3, [1, 1, 1]), 8, 82),
        (CXX2_23, 8, 244),
        (FpPoly.make(7, [1, 3, 3, 1]), 4, 344),
    ],
    ids=lambda v: f"{v.coeffs} mod {v.p}" if isinstance(v, FpPoly) else str(v),
)
def test_range_equals_string_oracle_at_every_length(f, n_max, rows):
    # every row that holds a block of length <= n_max is below the horizon
    oracle = [1] + [len(windows_oracle(f, m, rows)) for m in range(1, n_max + 1)]
    assert line_complexity_range(f, n_max) == oracle


def test_line_complexity_monotone_and_bounded():
    for f in (ONE_PLUS_X_2, CXX2_12, CXX2_23, ONE_PLUS_X_5):
        vals = line_complexity_range(f, 12)
        for n in range(1, 13):
            assert vals[n - 1] <= vals[n]
            assert 1 <= vals[n] <= f.p**n


def test_range_agrees_with_single_queries():
    vals = line_complexity_range(CXX2_23, 10)
    assert vals == [line_complexity(CXX2_23, n) for n in range(11)]


def test_zero_row_dilation_structure():
    # row k*p is row k with p-1 zeros spliced between entries
    for f in (ONE_PLUS_X_2, ONE_PLUS_X_3, CXX2_12):
        for k in range(51):
            assert poly_pow(f, k * f.p) == poly_pow(f, k).inflate(f.p)


def test_line_complexity_rejects_bad_input():
    with pytest.raises(ValueError):
        line_complexity(ONE_PLUS_X_2, -1)
    with pytest.raises(ValueError):
        line_complexity(FpPoly.make(3, [0]), 2)


def test_blocks_refuse_primes_above_a_byte():
    # all 257 digits occur in rows 0..300 of 1+x mod 257, but a byte holds 256
    f = FpPoly.make(257, [1, 1])
    with pytest.raises(ValueError):
        scan_accessible(f, 1, max_row=300)
    with pytest.raises(ValueError):
        line_complexity(f, 1)


def source_chain(f, n):
    """n, then the source length of each level down to the fixpoint length."""
    p, d = f.p, f.degree

    def source(m):
        return (m + d * (p - 1) + p - 2) // p + 1

    chain = [n]
    while source(chain[-1]) < chain[-1]:
        chain.append(source(chain[-1]))
    return chain


def recording_maps(monkeypatch):
    """The lengths of the levels cut from now on, in order: every level, kept
    or only counted, is one call of _cuts."""
    built = []
    cuts = blocks._Closure._cuts

    def recording(self, sources, n):
        built.append(n)
        return cuts(self, sources, n)

    monkeypatch.setattr(blocks._Closure, "_cuts", recording)
    return built


def held_matrices(closure):
    return [name for name, value in vars(closure).items() if isinstance(value, np.ndarray)]


def test_single_count_builds_only_the_source_chain(monkeypatch):
    closure = blocks._Closure(ONE_PLUS_X_2)
    # the fixpoint is built on first use; build it before recording
    assert closure.fixpoint.shape == (8, 3)
    built = recording_maps(monkeypatch)
    assert len(closure.level(300)) == 300 * 300 - 300 + 2
    chain = source_chain(ONE_PLUS_X_2, 300)  # 300, 151, 77, ..., 4, 3
    assert built == sorted(chain[:-1])  # the fixpoint length 3 is never rebuilt
    # only the fixpoint level keeps its blocks
    assert held_matrices(closure) == ["fixpoint"]


def test_range_query_builds_only_the_source_chain_of_its_end(monkeypatch):
    f = ONE_PLUS_X_3
    built = recording_maps(monkeypatch)
    expected = a_from_recursion_range(recursion_1px(3), 150)
    assert line_complexity_range(f, 150) == expected
    assert source_chain(f, 150) == [150, 52, 19, 8, 4, 3]
    # level 150 is never cut: its windows are pairs of windows of level
    # 150 - 3*25 = 75, cut from level 27, the prefixes of level 52
    assert source_chain(f, 75)[:2] == [75, 27]
    # the fixpoint rounds cut level 3; above it only the chain of 52 and level 75
    assert [n for n in built if n > 3] == [4, 8, 19, 52, 75]
    # a longer count builds its own chain: 160 = 82 + 3*26
    built.clear()
    assert line_complexity(f, 160) == a_from_recursion(recursion_1px(3), 160)
    assert [n for n in built if n > 3] == sorted(source_chain(f, 160)[1:-1]) + [82]
    closure = blocks._Closure(f)
    closure.level(150)
    assert held_matrices(closure) == ["fixpoint"]


def distinct_prefixes(level, m):
    return len(blocks._unique_rows(level[:, :m]))


def first_diffs(rows, order):
    """The first differences of the adjacent pairs, read from _first_diffs,
    checking that its entry 0, the first row's, is 0 and that its dtype is
    the smallest that holds the row length."""
    diffs = blocks._first_diffs(rows, order)
    assert len(diffs) == len(rows) and diffs[:1].tolist() == [0] * min(len(rows), 1)
    assert diffs.dtype == np.min_scalar_type(rows.shape[1])
    return diffs[1:]


@pytest.mark.parametrize("chunk", [2**14, 1, 3, 4])
def test_prefix_pass_counts_the_distinct_prefixes(monkeypatch, chunk):
    # chunks of 1, 3 and 4 pairs split 4, 5, 6 and 7 rows at and off a
    # boundary; chunks of 2**14 pairs hold every level whole
    rng = np.random.default_rng(5)
    levels = [np.array([[1, 0, 2]], np.uint8)]
    for rows in (2, 4, 5, 6, 7, 40):
        digits = rng.integers(0, 3, size=(rows * 3, 6), dtype=np.uint8)
        levels.append(blocks._unique_rows(digits)[:rows])
    levels.append(blocks._Closure(CXX2_23).level(9))
    for level in levels:
        monkeypatch.setattr(blocks, "CHUNK_DIGITS", chunk * level.shape[1])
        diffs = first_diffs(level, np.arange(len(level)))
        assert len(diffs) == len(level) - 1
        for m in range(1, level.shape[1] + 1):
            assert 1 + int(np.sum(diffs < m)) == distinct_prefixes(level, m)


def test_prefix_pass_in_small_chunks_counts_a_range(monkeypatch):
    closure = blocks._Closure(CXX2_23)
    level = closure._multiples(closure.level(12))
    oracle = [1] + [distinct_prefixes(level, m) for m in range(1, 13)]
    # level s(12) and level L = 12 - 3*2 both have 6 digits: chunks of 7 rows
    assert closure._source_len(12) == 6
    monkeypatch.setattr(blocks, "CHUNK_DIGITS", 7 * 6)
    assert line_complexity_range(CXX2_23, 12) == oracle
    # a level below the fixpoint length is cut from the fixpoint's prefixes
    for m in range(1, closure.lc + 1):
        assert np.array_equal(closure.level(m),
                              blocks._unique_rows(closure.fixpoint[:, :m]))


# 1+x+x^2 mod 5: the recursion criterion 05 pins, from the pinned a(0..10)
QUADRATIC_5 = RecursionSpec(
    p=5,
    rows=((9, 12, 4), (6, 13, 6), (4, 12, 9), (2, 12, 10, 1), (1, 10, 12, 2)),
    constant=152,
    initials=(1, 5, 25, 121, 393, 673, 929, 1257, 1761, 2341, 3097),
    threshold=6,
)
QUADRATIC_5_POLY = FpPoly.make(5, [1, 1, 1])


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_counted_level_counts_exactly_with_its_repeats(monkeypatch, chunk):
    # the counted level is the sorted candidates, repeats kept, so runs of
    # equal rows straddle the chunk boundaries of the prefix pass; each count
    # reads the candidates of level s(n) in chunks of `chunk` rows
    candidates, order = blocks._Closure(QUADRATIC_5_POLY).candidates(30)
    assert len(blocks._unique_rows(candidates)) < len(candidates)
    assert np.array_equal(candidates[order], np.array(sorted(candidates.tolist()), np.uint8))
    closure = blocks._Closure(CXX2_23)
    level = closure._multiples(closure.level(12))
    cases = [(QUADRATIC_5_POLY, 30, a_from_recursion_range(QUADRATIC_5, 30)),
             (ONE_PLUS_X_3, 60, [a_1px(3, n) for n in range(61)]),
             (CXX2_23, 12, [1] + [distinct_prefixes(level, m) for m in range(1, 13)])]
    for f, n, oracle in cases:
        monkeypatch.setattr(blocks, "CHUNK_DIGITS", chunk * blocks._Closure(f)._source_len(n))
        assert line_complexity_range(f, n) == oracle


def test_counted_level_holds_one_candidate_matrix():
    # level 150 of 1+x mod 3 was counted from the p*p cuts of the a(52)
    # blocks of level 52; the split count holds less than that matrix
    assert source_chain(ONE_PLUS_X_3, 150)[1] == 52
    candidate_bytes = 3 * 3 * a_1px(3, 52) * 150
    tracemalloc.start()
    try:
        counts = line_complexity_range(ONE_PLUS_X_3, 150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[-1] == a_1px(3, 150)
    assert peak < candidate_bytes


def test_counted_level_of_many_runs_holds_one_candidate_matrix():
    # level 60 of 1+x+x^2 mod 5 was counted from the cuts of level 15, which
    # come in about 14,600 sorted runs, against 23 for level 150 of 1+x mod 3
    assert source_chain(QUADRATIC_5_POLY, 60)[1] == 15
    candidate_rows = 5 * 5 * a_from_recursion(QUADRATIC_5, 15)
    assert candidate_rows == 208625
    tracemalloc.start()
    try:
        counts = line_complexity_range(QUADRATIC_5_POLY, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == a_from_recursion_range(QUADRATIC_5, 60)
    assert peak < candidate_rows * 60


def nonzero_polys(p, max_degree):
    """Every nonzero polynomial mod p of degree at most max_degree."""
    return [FpPoly.make(p, list(coeffs)) for degree in range(max_degree + 1)
            for coeffs in product(range(p), repeat=degree + 1) if coeffs[-1]]


@pytest.mark.parametrize(
    "polys",
    [
        nonzero_polys(2, 5),
        nonzero_polys(3, 3),
        [FpPoly.make(p, c) for p, c in ((5, [1, 1, 1]), (5, [3, 2, 4]), (5, [2, 0, 1]),
                                        (7, [1, 1, 1]), (7, [3, 5, 2]),
                                        (11, [5, 0, 3]), (11, [0, 1, 1]))],
        [FpPoly.make(p, [0] * k + [c]) for p, c, k in ((2, 1, 6), (3, 2, 4), (5, 2, 3),
                                                       (7, 3, 2), (11, 5, 1))],
    ],
    ids=["every f mod 2 of degree <= 5", "every f mod 3 of degree <= 3",
         "quadratics mod 5, 7 and 11", "c*x^k"],
)
def test_split_count_equals_the_candidate_count(polys):
    # lengths on both sides of the split's start at 2p, and past it
    for f in polys:
        p = f.p
        lengths = sorted({1, 2, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p + 2, 17, 29, 40})
        oracle = count_by_candidates(f, lengths[-1])
        for n in lengths:
            assert line_complexity_range(f, n) == oracle[:n + 1], (f, n)


UNQUOTIENTED_CASES = [FpPoly.make(p, c) for p, c in (
    (3, [2, 1, 1]), (3, [1, 0, 2, 1]), (5, [0, 1, 1]), (5, [2, 1, 0, 3]), (5, [4]),
    (7, [3, 1, 2]), (7, [0, 0, 0, 2]), (11, [5, 0, 3]), (11, [1, 1]), (13, [1, 1]))]


@pytest.mark.parametrize("f", UNQUOTIENTED_CASES,
                         ids=lambda f: f"{digits_to_text(f.coeffs)} mod {f.p}")
def test_counts_equal_the_unquotiented_closure(f):
    # the oracle keeps every unit multiple of every block as a tuple; the
    # lengths lie on both sides of 2p, where the split count starts, and at
    # p = 3 past it, since L = n - 3t must exceed lc >= 3.  4 mod 5 and 2x^3
    # mod 7 have coefficients of order 2 and 3, below p - 1, and x+x^2 mod 5
    # has f(0) = 0
    p = f.p
    lengths = [1, 2, 2 * p - 1, 2 * p, 2 * p + 1] + ([3 * p + 2] if p == 3 else [])
    oracle = count_by_sets(f, lengths[-1])
    for n in lengths:
        assert line_complexity_range(f, n) == oracle[:n + 1], (f, n)
        assert line_complexity(f, n) == oracle[n], (f, n)


def test_a_quotiented_level_holds_one_row_per_orbit():
    # 1+x+x^2 mod 5 has two terms, so each nonzero orbit is 4 blocks
    closure = blocks._Closure(QUADRATIC_5_POLY)
    level = closure.level(15)
    count = a_from_recursion(QUADRATIC_5, 15)
    assert closure.units == 4
    assert len(level) == 1 + (count - 1) // 4
    # the zero block, then rows whose first nonzero digit is 1
    assert not level[0].any()
    nonzero = level[1:]
    assert (nonzero[np.arange(len(nonzero)), np.argmax(nonzero != 0, axis=1)] == 1).all()
    assert len(closure._multiples(level)) == count


def test_no_block_is_divided_mod_2_or_for_a_monomial(monkeypatch):
    # p = 2 has one unit, and the rows of c*x^k hold only powers of c
    monkeypatch.setattr(blocks._Closure, "_normalize",
                        lambda self, mat: pytest.fail("a block was divided"))
    assert line_complexity_range(ONE_PLUS_X_2, 40) == [a_1px(2, n) for n in range(41)]
    assert line_complexity_range(CXX2_12, 40) == series_1xx2(40)
    level, _ = blocks.window_maps(CXX2_12, 3)
    assert len(level) == series_1xx2(3)[3]
    for p, coeffs, order in ((5, [4], 2), (7, [0, 0, 0, 2], 3), (3, [0, 2], 2), (5, [1], 1)):
        f = FpPoly.make(p, coeffs)
        assert blocks._Closure(f).units == 1
        assert line_complexity_range(f, 30) == [1 + order * n for n in range(31)]
        level, _ = blocks.window_maps(f, f.degree + 1)
        assert len(level) == 1 + order * (f.degree + 1)


def test_split_count_reaches_levels_past_the_candidate_cap():
    # level 700 of 1+x mod 2 would hold 343,985,600 candidate digits and
    # level 600 of 1+x+x^2 mod 2 also over MAX_CELLS; the split holds neither
    assert line_complexity_range(ONE_PLUS_X_2, 700) == [a_1px(2, n) for n in range(701)]
    assert line_complexity_range(CXX2_12, 600) == series_1xx2(600)


def test_split_count_refuses_its_sort_keys_before_allocating(monkeypatch):
    # 1+x mod 5 to 60 sorts p*p keys per block of level s(60) = 14; with the
    # cap just below them it is refused after building level 14 and before
    # the keys, level 30's candidates and the range minima
    f, n = ONE_PLUS_X_5, 60
    tracemalloc.start()
    try:
        line_complexity_range(f, n)
        full_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    closure = blocks._Closure(f)
    keys = 5 * 5 * len(closure.level(closure._source_len(n)))
    assert closure._source_len(n) == 14
    monkeypatch.setattr(blocks, "MAX_CELLS", 8 * keys - 1)
    tracemalloc.start()
    try:
        with pytest.raises(blocks.ClosureSizeError,
                           match=f"the {keys} sort keys of level {n} would hold {8 * keys} bytes"):
            line_complexity_range(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * keys
    assert peak < full_peak / 4


@pytest.mark.parametrize("f, n", [(ONE_PLUS_X_2, 40), (CXX2_23, 29), (QUADRATIC_5_POLY, 30),
                                  (FpPoly.make(7, [1, 1, 1]), 40)])
def test_split_count_equals_the_candidate_count_in_every_bin(f, n):
    # the last bin counts the adjacent equal windows, N - a(n) of them
    closure = blocks._Closure(f)
    t = n // 2 // f.p
    assert t and n - f.p * t > closure.lc
    firsts = blocks._split_firsts(closure, n, t)
    oracle = blocks._rank(*closure.candidates(n))[0]
    assert oracle[n] > 0
    assert firsts.tolist() == oracle.tolist()


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_split_count_equals_the_candidate_count_in_small_chunks(monkeypatch, chunk):
    # chunks of `chunk` sort keys, and of `chunk` rows of 8 digits (one row
    # for the longer ones), split every pass of the count off its boundaries
    monkeypatch.setattr(blocks, "CHUNK_DIGITS", 8 * chunk)
    for f in (FpPoly.make(2, [1, 1, 0, 1]), CXX2_23, FpPoly.make(5, [0, 0, 2]),
              FpPoly.make(7, [0, 3])):
        lengths = sorted({2 * f.p, 2 * f.p + 1, 3 * f.p + 2, 17})
        oracle = count_by_candidates(f, lengths[-1])
        for n in lengths:
            assert line_complexity_range(f, n) == oracle[:n + 1], (f, n)


def test_split_count_gathers_neither_level_s_n_nor_distinct_rows(monkeypatch):
    # level s(n) is read from its sorted candidates: its blocks and their
    # prefixes, level s(L), are the candidates' first differences
    f, n = QUADRATIC_5_POLY, 60
    closure = blocks._Closure(f)
    closure.fixpoint  # its rounds deduplicate, so it is built before recording
    levels = []
    level = blocks._Closure.level

    def recording(self, m):
        levels.append(m)
        return level(self, m)

    def refused(mat):
        raise AssertionError("the far count deduplicated a matrix")

    monkeypatch.setattr(blocks._Closure, "level", recording)
    monkeypatch.setattr(blocks, "_unique_rows", refused)
    firsts = blocks._split_firsts(closure, n, n // 2 // f.p)
    counts = 1 + closure.units * np.cumsum(firsts[:n])
    assert counts.tolist() == a_from_recursion_range(QUADRATIC_5, 60)[1:]
    # only the source chain below level s(60) = 15 is built, not level 15
    # nor level s(L) = s(30) = 9
    assert source_chain(f, 15) == [15, 6, 4]
    assert levels == [6, 4]


def test_split_count_holds_little_beside_its_sort_keys():
    # 1+x+x^2 mod 5 to 60 sorts N = 25 * a(15) uint64 keys; the whole count
    # peaks below three times those 8 * N bytes
    keys = 5 * 5 * a_from_recursion(QUADRATIC_5, 15)
    tracemalloc.start()
    try:
        counts = line_complexity_range(QUADRATIC_5_POLY, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == a_from_recursion_range(QUADRATIC_5, 60)
    assert peak < 3 * 8 * keys


def test_range_minima_equal_a_scan():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 3, 7, 8, 9, 33):
        values = rng.integers(0, 200, size=size).astype(np.uint8)
        table = blocks._range_minima(values)
        assert table.shape == (size.bit_length(), size) and table.dtype == np.uint8
        for lo in range(size):
            for hi in range(lo + 1, size + 1):
                k = (hi - lo).bit_length() - 1
                least = min(table[k, lo], table[k, hi - (1 << k)])
                assert least == values[lo:hi].min()


def sorted_run_matrices(seed):
    """Random uint8 matrices made of sorted runs with repeated rows, one run
    reversed, and a 0-row and a 1-row matrix."""
    rng = np.random.default_rng(seed)
    mats = [np.zeros((0, 4), np.uint8), np.array([[2, 0, 1, 1]], np.uint8)]
    for runs, width in ((1, 3), (3, 5), (6, 2), (5, 8), (2, 1)):
        parts = []
        for _ in range(runs):
            pool = rng.integers(0, 3, size=(int(rng.integers(1, 9)), width), dtype=np.uint8)
            drawn = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 15)))]
            parts.append(np.array(sorted(drawn.tolist()), np.uint8).reshape(-1, width))
        reversed_run = int(rng.integers(runs))
        parts[reversed_run] = parts[reversed_run][::-1]
        mats.append(np.concatenate(parts))
    return mats


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_order_and_first_diffs_equal_a_sorted_oracle(monkeypatch, chunk):
    unsorted = 0
    for mat in sorted_run_matrices(23):
        monkeypatch.setattr(blocks, "CHUNK_DIGITS", chunk * mat.shape[1])
        rows = [tuple(row) for row in mat.tolist()]
        oracle = sorted(rows)
        unsorted += rows != oracle
        order = blocks._order(mat)
        assert [rows[i] for i in order] == oracle
        # stable: equal rows keep the order they came in
        assert all(order[i] < order[i + 1] for i in range(len(oracle) - 1)
                   if oracle[i] == oracle[i + 1])
        width = mat.shape[1]
        firsts = [next((j for j in range(width) if a[j] != b[j]), width)
                  for a, b in zip(oracle, oracle[1:])]
        assert first_diffs(mat, order).tolist() == firsts
        # a matrix already sorted is one run, which its order reads as it stands
        already = np.array(oracle, np.uint8).reshape(-1, width)
        assert blocks._order(already).tolist() == list(range(len(already)))
        assert first_diffs(already, blocks._order(already)).tolist() == firsts
        assert [tuple(row) for row in blocks._distinct(mat, order).tolist()] == sorted(set(rows))
    assert unsorted >= 3


def test_unique_rows_leaves_its_argument_alone():
    rng = np.random.default_rng(11)
    digits = rng.integers(0, 3, size=(60, 5), dtype=np.uint8)
    for mat in (digits, digits[:, 1:4], digits[::-1]):
        before = mat.copy()
        got = blocks._unique_rows(mat)
        assert np.array_equal(mat, before)
        assert [tuple(row) for row in got] == sorted(set(map(tuple, mat.tolist())))


def naive_fixpoint(closure):
    """The fixpoint by re-expanding the whole level every round, one block per orbit."""
    fix = blocks._row0_blocks(closure.lc)
    while len(grown := blocks._unique_rows(
            closure._orbits(closure._cuts([fix] * closure.p, closure.lc)))) > len(fix):
        fix = grown
    return fix


@pytest.mark.parametrize(
    "p,coeffs",
    [(2, (1, 1, 0, 0, 0, 1)), (2, (1, 1, 0, 0, 0, 0, 0, 0, 1)),
     (2, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)), (2, (1, 1) + (0,) * 10 + (1,)),
     (3, (1, 1)), (5, (1, 1, 1)), (7, (3, 1, 2))],
    ids=lambda v: str(v),
)
def test_fixpoint_expands_each_block_once(monkeypatch, p, coeffs):
    closure = blocks._Closure(FpPoly.make(p, coeffs))
    expanded = []
    cuts = blocks._Closure._cuts

    def recording(self, sources, n):
        expanded.append([len(src) for src in sources])
        return cuts(self, sources, n)

    monkeypatch.setattr(blocks._Closure, "_cuts", recording)
    fix = closure.fixpoint
    # every row of a round reads the same new blocks
    assert all(lens == lens[:1] * p for lens in expanded)
    assert sum(lens[0] for lens in expanded) == len(fix)
    assert np.array_equal(fix, naive_fixpoint(closure))


@pytest.mark.parametrize("f", [FpPoly.make(3, [1, 1, 1]), ONE_PLUS_X_5],
                         ids=["1+x+x^2 mod 3", "1+x mod 5"])
def test_cuts_read_each_rows_own_source(monkeypatch, f):
    closure = blocks._Closure(f)
    p, n = f.p, 30
    s = closure._source_len(n)
    level = closure.level(s)
    # sources of different sizes, one row each: all blocks, a strided
    # third, none, one
    pool = [level, level[::3], level[:0], level[1:2]]
    sources = [pool[r % len(pool)] for r in range(p)]
    got = closure._cuts(sources, n)
    at = 0
    for r, src in enumerate(sources):
        rows = p * len(src)
        alone = closure._cuts([src] * p, n)
        assert np.array_equal(got[at:at + rows], alone[r * rows:(r + 1) * rows])
        at += rows
    assert at == len(got)
    # every cut of an accessible block is accessible
    found = {bytes(row) for row in blocks._unique_rows(got)}
    assert found <= {bytes(row) for row in closure._multiples(closure.level(n))}
    # under a cap below the dilated span of the whole level, a few blocks
    # still fit, and the level alone in one row is refused before its
    # expansion or the candidate matrix is allocated
    monkeypatch.setattr(blocks, "MAX_CELLS", len(level) * (p * (s - 1) + 1) - 1)
    assert closure._cuts([level[:1]] * p, n).shape == (p * p, n)
    monkeypatch.setattr(blocks._Closure, "_expand_row",
                        lambda self, src, r: pytest.fail("expanded over the cap"))
    candidate_bytes = p * len(level) * n
    tracemalloc.start()
    try:
        with pytest.raises(blocks.ClosureSizeError, match="expansion"):
            closure._cuts([level] + [level[:0]] * (p - 1), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < candidate_bytes // 4


def test_cuts_size_each_rows_expansion_on_its_own(monkeypatch):
    # a step holds one row's expansion at a time, so the largest is sized,
    # not their sum; short cuts keep the candidate matrix under the cap
    closure = blocks._Closure(CXX2_23)
    level = closure.level(6)
    sources = [level, level[: len(level) // 2], level[:0]]
    sizes = [closure._expand_row(src, r).size for r, src in enumerate(sources)]
    assert sizes[0] == max(sizes) < sum(sizes)
    monkeypatch.setattr(blocks, "MAX_CELLS", sizes[0])
    assert closure._cuts(sources, 2).shape == (3 * (len(level) + len(level) // 2), 2)
    monkeypatch.setattr(blocks, "MAX_CELLS", sizes[0] - 1)
    with pytest.raises(blocks.ClosureSizeError,
                       match=f"the expansion of {len(level)} blocks by row 0 would hold {sizes[0]} bytes"):
        closure._cuts(sources, 2)


def test_fixpoint_refuses_a_round_before_merging_it(monkeypatch):
    # a round holds the set, its cuts, their concatenation and an 8-byte sort
    # index per row at once; under a cap one byte below the largest round,
    # that round is refused before its merge is made
    merges, concatenate = [], np.concatenate

    def recording(arrays, *args, **kwargs):
        merges.append(2 * sum(a.nbytes for a in arrays) + 8 * sum(map(len, arrays)))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", recording)
    fix = blocks._Closure(QUADRATIC_5_POLY).fixpoint
    largest = max(merges)
    assert largest > 2 * fix.nbytes
    merges.clear()
    monkeypatch.setattr(blocks, "MAX_CELLS", largest - 1)
    with pytest.raises(blocks.ClosureSizeError,
                       match=f"a fixpoint round of .* would hold {largest} bytes"):
        blocks._Closure(QUADRATIC_5_POLY).fixpoint
    assert all(size < largest for size in merges)


def test_fixpoint_round_counts_more_than_its_blocks(monkeypatch):
    # the worst round of this cubic mod 7 holds 638 blocks and cuts 27293
    # more, 139655 bytes of 5-blocks: under a cap of 150000 each array fits,
    # but with the joined copy and the sort index the round does not
    f = parse_poly("3+5x+16x^3", 7)
    monkeypatch.setattr(blocks, "MAX_CELLS", 150_000)
    with pytest.raises(blocks.ClosureSizeError,
                       match="a fixpoint round of 638 held blocks and 27293 cuts "
                             "would hold 502758 bytes"):
        line_complexity_range(f, 4)
    monkeypatch.setattr(blocks, "MAX_CELLS", 502_758)
    assert line_complexity_range(f, 4) == [1, 7, 49, 343, 2251]


@pytest.mark.parametrize("single_first", [True, False])
def test_single_and_range_queries_mix_in_either_order(single_first):
    if single_first:
        assert line_complexity(ONE_PLUS_X_3, 120) == a_1px(3, 120)
    assert line_complexity_range(ONE_PLUS_X_3, 60) == [a_1px(3, n) for n in range(61)]
    assert line_complexity(ONE_PLUS_X_3, 120) == a_1px(3, 120)


def expand_row_oracle(closure, src, r):
    """Each source block dilated by p and convolved with row r, one strided
    add per nonzero coefficient in int64, then one reduction mod p."""
    p, rr = closure.p, closure.rows[r]
    span = p * (src.shape[1] - 1) + 1
    e = np.zeros((len(src), span + len(rr) + p - 1), np.int64)
    for y, coef in enumerate(rr.tolist()):
        if coef:
            e[:, y:y + span:p] += coef * src.astype(np.int64)
    return (e % p).astype(np.uint8)


def assert_expansions_equal_the_oracle(closure, rng):
    p = closure.p
    shapes = ((0, 3), (1, 1), (6, 1), (9, 4)) + (((40, 7),) if p < 100 else ())
    for shape in shapes:
        src = rng.integers(0, p, size=shape, dtype=np.uint8)
        for r in range(p):
            want = expand_row_oracle(closure, src, r)
            got = closure._expand_row(src, r)
            assert got.dtype == np.uint8 and got.shape[0] == len(src)
            # the table gather's width is p*(s+kt), at least the oracle's, and
            # the extra trailing columns are zero
            assert got.shape[1] >= want.shape[1]
            assert np.array_equal(got[:, :want.shape[1]], want)
            assert not got[:, want.shape[1]:].any()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 251])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_expand_row_equals_the_strided_add_oracle(p, degree):
    rng = np.random.default_rng(1000 * p + degree)
    coeffs = [int(c) for c in rng.integers(0, p, size=degree)] + [int(rng.integers(1, p))]
    closure = blocks._Closure(FpPoly.make(p, coeffs))
    if p == 17 and degree > 2:
        # row 16 reads 3 or 4 source digits, more than one table keys: the
        # lookups of two tables are summed
        assert (len(closure.rows[16]) - 1) // p + 1 > closure.group == 2
    # a closure expands alike on every call
    for _ in range(2):
        assert_expansions_equal_the_oracle(closure, rng)


def test_expand_row_in_one_digit_tables_and_one_row_chunks(monkeypatch):
    # a table of one digit and chunks of one row: every expansion that
    # reads two source digits sums tables, and every row is its own chunk of
    # keys, as in every other pass
    level, maps = blocks.window_maps(FpPoly.make(3, [1, 1, 1]), 3)
    monkeypatch.setattr(blocks, "TABLE_CELLS", 1)
    monkeypatch.setattr(blocks, "CHUNK_DIGITS", 1)
    rng = np.random.default_rng(19)
    for p, coeffs in ((2, (1, 1, 0, 1)), (3, (2, 1, 1)), (5, (1, 1, 1)), (17, (3, 5, 0, 16)),
                      (251, (1, 7, 250))):
        closure = blocks._Closure(FpPoly.make(p, coeffs))
        assert closure.group == 1
        assert_expansions_equal_the_oracle(closure, rng)
    assert line_complexity_range(ONE_PLUS_X_3, 60) == [a_1px(3, n) for n in range(61)]
    assert line_complexity_range(QUADRATIC_5_POLY, 30) == a_from_recursion_range(QUADRATIC_5, 30)
    patched_level, patched_maps = blocks.window_maps(FpPoly.make(3, [1, 1, 1]), 3)
    assert np.array_equal(patched_level, level)
    assert np.array_equal(patched_maps, maps)


def test_expand_row_holds_its_keys_one_chunk_at_a_time():
    # level 150 of 1+x mod 2 has 22,352 blocks; keyed whole, as intp, they
    # would take four times the bytes of their expansion
    closure = blocks._Closure(ONE_PLUS_X_2)
    src = closure.level(150)
    assert src.shape == (150 * 150 - 150 + 2, 150)
    tracemalloc.start()
    try:
        out = closure._expand_row(src, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = expand_row_oracle(closure, src, 1)
    assert np.array_equal(out[:, :want.shape[1]], want)
    key_bytes = blocks.CHUNK_DIGITS
    assert peak < out.nbytes + 4 * key_bytes


# -------------------------------------------------------- 1+x recursions ----


def test_a_1px_closed_form_and_examples():
    assert a_1px(2, 100) == 9902
    for n in range(1, 200):
        assert a_1px(2, n) == n * n - n + 2
    assert a_1px(3, 1) == 3
    assert a_1px(5, 2) == 25


@given(st.integers(1, 400))
def test_a_1px_matches_mod2_closed_form(n):
    assert a_1px(2, n) == n * n - n + 2


def test_a_1px_equals_exact_count_for_small_n():
    for p, f in ((2, ONE_PLUS_X_2), (3, ONE_PLUS_X_3), (5, ONE_PLUS_X_5)):
        assert line_complexity_range(f, 10) == [a_1px(p, n) for n in range(11)]


def test_ab_equivalence(monkeypatch):
    for p in (2, 3, 5, 7):
        assert verify_ab_equivalence(p, 200)
    # a wrong last value of a_1px is caught
    exact = blocks.a_from_recursion_range
    monkeypatch.setattr(blocks, "a_from_recursion_range", lambda rec, n: exact(rec, n)[:-1] + [0])
    assert not verify_ab_equivalence(3, 200)


def test_ab_equivalence_needs_room():
    with pytest.raises(ValueError):
        verify_ab_equivalence(3, 2)


# ----------------------------------------------------------- window maps ---


@pytest.mark.parametrize(
    "f",
    [ONE_PLUS_X_2, CXX2_12, ONE_PLUS_X_3, CXX2_23, FpPoly.make(5, [1, 0, 2])],
    ids=lambda f: f"{f.coeffs} mod {f.p}",
)
def test_window_maps_follow_the_rows(f):
    # cut p*r+j sends the window at t of row m to the one at p*t+r*d+j of
    # row p*m+r; rows come from poly_pow and windows from string slicing
    p, d = f.p, f.degree
    n = d + 1
    level, maps = blocks.window_maps(f, n)
    index = {digits_to_text(b): i for i, b in enumerate(level.tolist())}
    assert set(index) == windows_oracle(f, n, p**3)

    def window(k, t):
        digits = poly_pow(f, k).coeffs
        return digits_to_text(digits[i] if 0 <= i < len(digits) else 0 for i in range(t, t + n))

    for m in range(2 * p):
        for t in range(-n, m * d + 1):
            src = index[window(m, t)]
            for r in range(p):
                for j in range(p):
                    assert level[maps[r, j, src]].tolist() == [
                        int(c) for c in window(p * m + r, p * t + r * d + j)
                    ]


def test_window_maps_need_a_self_sourcing_length():
    # at degree 2 only the lengths d+1 = 3 and d+2 = 4 are their own sources
    for n in (2, 5):
        with pytest.raises(ValueError, match="source length"):
            blocks.window_maps(CXX2_23, n)
    for n in (3, 4):
        level, maps = blocks.window_maps(CXX2_23, n)
        assert maps.shape == (3, 3, len(level))


# ---------------------------------------------------------- RecursionSpec ---


def test_recursion_spec_rejects_malformed():
    with pytest.raises(ValueError):  # wrong row count
        RecursionSpec(p=2, rows=((3, 1),), constant=6, initials=(1, 2, 4), threshold=2)
    with pytest.raises(ValueError):  # threshold not covered by initials
        RecursionSpec(
            p=2, rows=((3, 1), (1, 3)), constant=6, initials=(1, 2), threshold=3
        )
    with pytest.raises(ValueError):  # no descent: a(n+2) reaches m at m=2
        RecursionSpec(
            p=2, rows=((1, 0, 1), (1, 3)), constant=0, initials=(1, 2), threshold=2
        )
    with pytest.raises(ValueError):  # initials contradict the rule
        RecursionSpec(
            p=2, rows=((3, 1), (1, 3)), constant=6, initials=(1, 2, 4, 99), threshold=3
        )


def test_a_from_recursion_known_values():
    assert a_from_recursion(recursion_1px(2), 100) == 9902
    rec = infer_recursion(CXX2_12)
    assert a_from_recursion(rec, 8) == 70
    # a(12) = 2 a(6) + 2 a(7) - 8 with a(6) = 36, a(7) = 53
    assert a_from_recursion(rec, 12) == 170
    with pytest.raises(ValueError):
        a_from_recursion(rec, -1)


def test_a_from_recursion_descends_past_the_recursion_limit():
    # 2^2000 + 12345 has 2001 binary digits; a(n) = n^2 - n + 2 for 1+x mod 2
    n = 2**2000 + 12345
    assert a_from_recursion(recursion_1px(2), n) == n * n - n + 2


@pytest.mark.parametrize("rec", [recursion_1px(3), infer_recursion(CXX2_12), recursion_1px(7)],
                         ids=["1+x mod 3", "1+x+x^2 mod 2", "1+x mod 7"])
def test_a_from_recursion_shares_descents_through_a_memo(rec):
    # floor(n/p) of n = floor(p^(k+1/2)) is the sample one octave lower, so
    # with a shared memo each sample's descent stops after a few digits
    known = {}
    for k in range(1, 120):
        n = isqrt(rec.p ** (2 * k + 1))
        before = len(known)
        assert a_from_recursion(rec, n, known) == known[n]
        assert len(known) - before <= 3 * len(rec.initials)
    for n in sorted(known)[::7]:
        assert known[n] == a_from_recursion(rec, n)
    # a memo holding a wrong value is read, not recomputed
    assert a_from_recursion(rec, 10**6, {10**6: -1}) == -1


def test_a_from_recursion_range_fills_bottom_up():
    for rec in (recursion_1px(2), recursion_1px(5), infer_recursion(CXX2_12),
                infer_recursion(CXX2_23)):
        assert a_from_recursion_range(rec, 300) == [a_from_recursion(rec, n) for n in range(301)]
    assert a_from_recursion_range(recursion_1px(3), 1) == [1, 3]
    with pytest.raises(ValueError):
        a_from_recursion_range(recursion_1px(3), -1)


def test_recursion_1px_for_a_large_prime():
    # each residue's first index is found by arithmetic, so building the
    # p-row recursion costs O(p), not O(p^2)
    p = 100003
    assert [a_from_recursion(recursion_1px(p), n) for n in range(11)] == series_1px(p, 10)


def test_recursion_1px_matches_counts():
    for p, f in ((2, ONE_PLUS_X_2), (3, ONE_PLUS_X_3), (5, ONE_PLUS_X_5)):
        rec = recursion_1px(p)
        assert [a_from_recursion(rec, n) for n in range(13)] == line_complexity_range(
            f, 12
        )


@given(st.integers(1, 3000), st.integers(0, 40))
@settings(max_examples=80)
def test_recursion_1px_equals_descent_oracle(n, m):
    # closed form mod 2, the closure itself mod 3
    assert a_from_recursion(recursion_1px(2), n) == n * n - n + 2
    assert a_from_recursion(recursion_1px(3), m) == line_complexity(ONE_PLUS_X_3, m)


# --------------------------------------------------------------- inference --


def test_infer_recovers_known_rules():
    rec2 = infer_recursion(ONE_PLUS_X_2)
    known = recursion_1px(2)
    assert rec2.rows == known.rows
    assert rec2.constant == known.constant == 6

    rec = infer_recursion(CXX2_12)
    assert rec.rows == ((2, 2), (1, 2, 1))
    assert rec.constant == 8


def test_inferred_rule_extends_the_data():
    # fit on the default window, then check far beyond it
    for f in (CXX2_12, CXX2_23):
        rec = infer_recursion(f)
        vals = line_complexity_range(f, 25)
        assert [a_from_recursion(rec, n) for n in range(26)] == vals


def test_infer_short_window_fails_loudly():
    with pytest.raises(InferenceError):
        infer_recursion(CXX2_12, window=7)


@pytest.mark.parametrize("poly,p", [("1", 2), ("x", 2), ("2", 3), ("x^3", 3), ("2", 5),
                                    ("4", 5), ("x^2", 5), ("3", 7)])
def test_infer_fits_a_linear_a(poly, p):
    # row k of c x^e is the one digit c^k, so the n-blocks are the zero block
    # and one nonzero digit of the subgroup <c> of F_p^* at each of n places
    f = parse_poly(poly, p)
    c = f.coeffs[-1]
    order = next(k for k in range(1, p) if pow(c, k, p) == 1)
    assert a_from_recursion_range(infer_recursion(f), 200) == [1 + order * n for n in range(201)]


def test_infer_refusal_names_what_was_tried_and_reads_one_window(monkeypatch):
    asked = []
    counts = blocks.line_complexity_range

    def recording(f, n_max):
        asked.append(n_max)
        return counts(f, n_max)

    monkeypatch.setattr(blocks, "line_complexity_range", recording)
    with pytest.raises(InferenceError) as exc:
        infer_recursion(FpPoly.make(2, [1, 1, 0, 0, 1]))
    assert asked == [22]  # 4p + max(14, 3p) at p = 2
    msg = str(exc.value)
    for part in ("a(0..22)", "4 shifts", "threshold 3 to 9", "1+x+x^4 mod 2"):
        assert part in msg


def infer_outcome(infer, f, window):
    try:
        return infer(f, window)
    except InferenceError as exc:
        return f"InferenceError: {exc}"


INFER_CASES = (
    [(FpPoly.make(p, [c, 1, 1]), None) for p in (2, 3, 5, 7) for c in range(1, p)]
    + [(FpPoly.make(p, [1, 1]), None) for p in (2, 3, 5, 7, 11)]
    + [(FpPoly.make(5, [1]), None), (FpPoly.make(5, [2]), None), (parse_poly("x^3", 3), None)]
    # every f mod 2 of degree 1 to 3 with f(0) = 1, so every class and its reversal
    + [(FpPoly.make(2, [1, *(mid >> i & 1 for i in range(d - 1)), 1]), None)
       for d in (1, 2, 3) for mid in range(1 << (d - 1))]
    + [(f, window) for f in (CXX2_12, CXX2_23) for window in (7, 60)]
)


@pytest.mark.parametrize("f,window", INFER_CASES,
                         ids=[f"{digits_to_text(f.coeffs)}-mod{f.p}-w{w}" for f, w in INFER_CASES])
def test_infer_equals_one_solve_per_threshold(f, window):
    assert infer_outcome(infer_recursion, f, window) == infer_outcome(infer_by_thresholds, f, window)


def test_infer_solves_a_full_rank_window_once(monkeypatch):
    # the fit of 1+x+x^2 mod 5 is accepted at t0 = 6; t0 = 3, 4, 5 are
    # refused by residuals of the one solve, not by solves of their own
    solve, calls = blocks._solve_exact, []

    def counted(aug, n_unknowns):
        calls.append(len(aug))
        return solve(aug, n_unknowns)

    monkeypatch.setattr(blocks, "_solve_exact", counted)
    rec = infer_recursion(FpPoly.make(5, [1, 1, 1]))
    assert rec.rows == ((9, 12, 4), (6, 13, 6), (4, 12, 9), (2, 12, 10, 1), (1, 10, 12, 2))
    # 36 equations a(0..35) in 21 unknowns: the last threshold is 13
    assert calls == [36 - 13]


@given(st.integers(1, 5), st.integers(1, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_solve_exact_agrees_with_sympy_ranks(n, m, data):
    # Rouche-Capelli on sympy's rational ranks decides consistency; column c
    # is a pivot when it raises the rank of the columns left of it, and the
    # solution satisfies every equation with every non-pivot unknown 0
    import sympy

    entries = st.integers(-4, 4)
    aug = [data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    sol, rank = blocks._solve_exact(aug, n)
    a = sympy.Matrix([row[:n] for row in aug])
    rank_a, rank_ab = a.rank(), sympy.Matrix(aug).rank()
    assert rank == rank_a
    assert (sol is None) == (rank_ab > rank_a)
    if sol is not None:
        for row in aug:
            assert sum(c * x for c, x in zip(row, sol)) == row[n]
        for c in range(n):
            if a[:, :c + 1].rank() == (a[:, :c].rank() if c else 0):
                assert sol[c] == 0
