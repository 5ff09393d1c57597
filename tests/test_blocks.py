"""Accessible-window counting: scans, the exact closure engine, recursions.

The reference oracle enumerates windows of zero-padded rows with plain Python
string slicing, nothing shared with the window engine that runs both the scan
and the closure.
"""

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
from polypow.fpoly import digits_to_text, parse_poly

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
    # oracle shares nothing with the maps that the closure and the scan run
    exact = {digits_to_text(b) for b in blocks._Closure(f).level(n)}
    assert exact == windows_oracle(f, n, rows + 1)


def test_line_complexity_base_cases():
    assert line_complexity(ONE_PLUS_X_2, 0) == 1
    for f in (ONE_PLUS_X_2, ONE_PLUS_X_3, ONE_PLUS_X_5):
        assert line_complexity(f, 1) == f.p  # every digit occurs


def test_line_complexity_closed_form_mod2():
    values = line_complexity_range(ONE_PLUS_X_2, 400)
    assert values == [1] + [n * n - n + 2 for n in range(1, 401)]


@pytest.mark.parametrize("p,n_max", [(3, 150), (5, 80)])
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
    """The lengths of the levels cut by _apply_maps from now on, in order."""
    built = []
    apply_maps = blocks._Closure._apply_maps

    def recording(self, expanded, n):
        built.append(n)
        return apply_maps(self, expanded, n)

    monkeypatch.setattr(blocks._Closure, "_apply_maps", recording)
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
    # the fixpoint rounds cut level 3; above it only the chain is cut
    assert [n for n in built if n > 3] == [4, 8, 19, 52, 150]
    # a longer count builds its own chain
    built.clear()
    assert line_complexity(f, 160) == a_from_recursion(recursion_1px(3), 160)
    assert [n for n in built if n > 3] == sorted(source_chain(f, 160)[:-1])
    closure = blocks._Closure(f)
    closure.level(150)
    assert held_matrices(closure) == ["fixpoint"]


def distinct_prefixes(level, m):
    return len(blocks._unique_rows(level[:, :m]))


@pytest.mark.parametrize("chunk", [blocks.ROW_CHUNK, 1, 3, 4])
def test_prefix_pass_counts_the_distinct_prefixes(monkeypatch, chunk):
    # chunks of 1, 3 and 4 pairs split 4, 5, 6 and 7 rows at and off a boundary
    monkeypatch.setattr(blocks, "ROW_CHUNK", chunk)
    rng = np.random.default_rng(5)
    levels = [np.array([[1, 0, 2]], np.uint8)]
    for rows in (2, 4, 5, 6, 7, 40):
        digits = rng.integers(0, 3, size=(rows * 3, 6), dtype=np.uint8)
        levels.append(blocks._unique_rows(digits)[:rows])
    levels.append(blocks._Closure(CXX2_23).level(9))
    for level in levels:
        diffs = blocks._first_diffs(level)
        assert len(diffs) == len(level) - 1
        for m in range(1, level.shape[1] + 1):
            assert 1 + int(np.sum(diffs < m)) == distinct_prefixes(level, m)


def test_prefix_pass_in_small_chunks_counts_a_range(monkeypatch):
    closure = blocks._Closure(CXX2_23)
    level = closure.level(12)
    oracle = [1] + [distinct_prefixes(level, m) for m in range(1, 13)]
    monkeypatch.setattr(blocks, "ROW_CHUNK", 7)
    assert line_complexity_range(CXX2_23, 12) == oracle
    # a level below the fixpoint length is cut from the fixpoint's prefixes
    for m in range(1, closure.lc + 1):
        assert np.array_equal(closure.level(m),
                              blocks._unique_rows(closure.fixpoint[:, :m]))


def naive_fixpoint(closure):
    """The fixpoint by re-expanding the whole level every round."""
    fix = blocks._row0_blocks(closure.lc)
    while len(grown := closure._apply_maps(closure._expand(fix), closure.lc)) > len(fix):
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
    expand = blocks._Closure._expand

    def recording(self, src):
        expanded.append(len(src))
        return expand(self, src)

    monkeypatch.setattr(blocks._Closure, "_expand", recording)
    fix = closure.fixpoint
    assert sum(expanded) == len(fix)
    assert np.array_equal(fix, naive_fixpoint(closure))


@pytest.mark.parametrize("single_first", [True, False])
def test_single_and_range_queries_mix_in_either_order(single_first):
    if single_first:
        assert line_complexity(ONE_PLUS_X_3, 120) == a_1px(3, 120)
    assert line_complexity_range(ONE_PLUS_X_3, 60) == [a_1px(3, n) for n in range(61)]
    assert line_complexity(ONE_PLUS_X_3, 120) == a_1px(3, 120)


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
                    assert level[maps[p * r + j][src]].tolist() == [
                        int(c) for c in window(p * m + r, p * t + r * d + j)
                    ]


def test_window_maps_need_a_self_sourcing_length():
    # at degree 2 only the lengths d+1 = 3 and d+2 = 4 are their own sources
    for n in (2, 5):
        with pytest.raises(ValueError, match="source length"):
            blocks.window_maps(CXX2_23, n)
    for n in (3, 4):
        assert len(blocks.window_maps(CXX2_23, n)[1]) == 9


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
