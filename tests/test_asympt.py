"""Piecewise-quadratic limits of a(n)/n^2 and their empirical cross-checks."""

import math
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import integer_nthroot

from polypow import (
    FpPoly,
    Piece,
    PiecewiseQuadratic,
    RecursionSpec,
    a_from_recursion,
    a_from_recursion_range,
    empirical_ratio,
    extrema,
    infer_recursion,
    limit_function,
    oscillation_csv,
    oscillation_table,
    recursion_1px,
)
from polypow import asympt
from oracles import charpoly, closed_form_1px, projection_row_by_charpoly

REC_1XX2_MOD2 = infer_recursion(FpPoly.make(2, [1, 1, 1]))

# the recursions whose laws the suite checks, under their family labels
FAMILIES = {
    "OnePlusX(p=3)": recursion_1px(3),
    "OnePlusX(p=5)": recursion_1px(5),
    "OnePlusX(p=7)": recursion_1px(7),
    "OnePlusXPlusX2Mod2()": REC_1XX2_MOD2,
}
families = pytest.mark.parametrize("rec", FAMILIES.values(), ids=FAMILIES.keys())


# ------------------------------------------------- closed forms as oracles --
# Closed forms of the 1+x (in oracles) and 1+x+x^2 mod 2 laws: an oracle that
# shares nothing with the derivation.


CLOSED_FORM_1XX2_MOD2 = [
    (F(1, 2), F(2, 3), F(-5, 12), F(1, 2), F(5, 4)),
    (F(2, 3), F(1, 1), F(7, 48), F(-1, 4), F(3, 2)),
]


def as_table(law):
    return [(pc.lo, pc.hi, pc.a, pc.b, pc.c) for pc in law.pieces]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_derived_law_equals_the_closed_form_1px(p):
    limit_function.cache_clear()
    start = time.perf_counter()
    law = limit_function(recursion_1px(p))
    assert time.perf_counter() - start < 1.0
    assert as_table(law) == closed_form_1px(p)


def test_derived_law_equals_the_closed_form_1xx2_mod2():
    limit_function.cache_clear()
    start = time.perf_counter()
    law = limit_function(REC_1XX2_MOD2)
    assert time.perf_counter() - start < 1.0
    assert as_table(law) == CLOSED_FORM_1XX2_MOD2


def spec_2(rows):
    """A p = 2 recursion a(2n+k) = rows[k] . (a(n), a(n+1)); M_0 has the
    eigenvalues of the 2x2 matrix of rows, and 1."""
    return RecursionSpec(p=2, rows=rows, constant=0, initials=(1, 2, 3), threshold=3)


@pytest.mark.parametrize(
    "rows",
    [((3, 2), (2, 3)), ((4, 1), (0, 5)), ((4, 1), (0, 4)), ((4, 0), (0, 4)),
     ((4, 0), (0, -4))],
    # each row sums past p^2 = 4 (roots 5, 1); 4 simple but 5 dominates;
    # 4 double, in one Jordan block and in two; 4 simple but -4 as large
    ids=["rows-sum-past-p2", "larger-root", "double-root", "double-eigenvalue",
         "equal-modulus"],
)
def test_law_refuses_a_spectrum_without_a_simple_dominant_p_squared(rows):
    with pytest.raises(ArithmeticError, match="not a simple dominant root"):
        limit_function(spec_2(rows))


@pytest.mark.parametrize(
    "extra",
    [lambda y: 2 * (y - F(3, 2)) ** 2 - (y - F(3, 2)) / 4, lambda y: (y - 1) ** 2],
    # Phi' jumps at 3/2, so the pieces differ by no square; Phi itself jumps
    # at 3/2, though the pieces differ by the square (y - 1)^2
    ids=["kink", "jump"],
)
def test_fit_refuses_pieces_that_do_not_meet_at_a_double_root(extra):
    # Phi(y) = y^2 on [1, 2], plus extra(y) past y = 3/2
    for i in range(3, 7):  # from level 3 on, both runs have three points
        ys = [1 + F(m, 2**i) for m in range(2**i + 1)]
        pts = [(y, y * y + (extra(y) if y > F(3, 2) else 0)) for y in ys]
        pieces, (lo, hi) = asympt._fit(pts)
        # the span to refine reaches past the break (at level 3 the kink's
        # extra term also vanishes at 13/8, so the left run ends there)
        assert pieces is None and 1 <= lo < hi <= 2 and hi > F(3, 2)


def test_fit_refines_a_run_too_short_to_fit():
    pts = [(F(y), F(y * y)) for y in (1, 2, 3, 4)] + [(F(5), F(0))]
    assert asympt._fit(pts) == (None, (F(4), F(5)))
    assert asympt._fit(pts[:2]) == (None, (F(1), F(2)))


def test_law_refines_only_the_cells_that_need_it():
    # 1+x mod 101 breaks at y = 2 and 3: only the cells [1, 2], [2, 3] and
    # [3, 4] go to level 1 (checked on level 2), the other 97 stay at level 0
    start = time.perf_counter()
    law = limit_function.__wrapped__(recursion_1px(101))
    assert time.perf_counter() - start < 5.0
    assert as_table(law) == closed_form_1px(101)


def test_points_read_phi_where_the_recursion_holds():
    # the 1+x mod 3 recursion, declared only from index 9 on and with a(1)
    # altered below it: Phi is unchanged, but V(3) = M_0 V(1) fails, so
    # level 0 must be read at level 1
    base = recursion_1px(3)
    initials = list(a_from_recursion_range(base, 8))
    initials[1] += 1
    rec = RecursionSpec(p=3, rows=base.rows, constant=base.constant,
                        initials=tuple(initials), threshold=9)
    row, denom = asympt._projection_row(rec)
    for levels in ([0, 0], [0, 1], [2, 0]):
        assert (asympt._points(rec, row, denom, levels)
                == asympt._points(base, row, denom, levels))
    assert limit_function(rec) == limit_function(base)


def test_law_refuses_past_the_grid_cap(monkeypatch):
    # 1+x mod 7 is checked first on level 1, whose grid of 43 points this cap refuses
    monkeypatch.setattr(asympt, "MAX_LAW_POINTS", 20)
    with pytest.raises(ArithmeticError, match="MAX_LAW_POINTS = 20"):
        asympt.limit_function.__wrapped__(recursion_1px(7))


# ------------------------------------------------------------ law shape ----


@families
def test_pieces_tile_domain_and_join_continuously(rec):
    law = limit_function(rec)
    assert law.domain == (F(1, rec.p), F(1))
    for left, right in zip(law.pieces, law.pieces[1:]):
        assert left.hi == right.lo
        assert left(left.hi) == right(right.lo)  # exact rational equality


@families
def test_endpoint_identity(rec):
    # L(1/p) and L(1) describe the same subsequence, so they must agree
    law = limit_function(rec)
    lo, hi = law.domain
    assert law(lo) == law(hi)


def test_mod2_limit_is_constant_one():
    law = limit_function(recursion_1px(2))
    assert law(F(1, 2)) == law(F(3, 4)) == law(F(1)) == 1
    assert extrema(recursion_1px(2)).inf == extrema(recursion_1px(2)).sup == 1


def test_extrema_exact_values():
    e3 = extrema(recursion_1px(3))
    assert (e3.inf, e3.sup) == (F(17, 5), F(11, 3))
    e5 = extrema(recursion_1px(5))
    assert (e5.inf, e5.sup) == (F(59, 5), F(421, 27))
    em = extrema(REC_1XX2_MOD2)
    assert (em.inf, em.sup) == (F(39, 28), F(7, 5))


@families
def test_extrema_witnessed_and_bracketing(rec):
    law = limit_function(rec)
    e = extrema(rec)
    assert law(e.arg_inf) == e.inf
    assert law(e.arg_sup) == e.sup
    lo, hi = law.domain
    for i in range(33):
        x = lo + (hi - lo) * F(i, 32)
        assert e.inf <= law(x) <= e.sup


@given(num=st.integers(1, 10**6))
@settings(max_examples=80)
def test_limit_between_extrema_everywhere(num):
    rec = recursion_1px(5)
    lo, hi = F(1, 5), F(1)
    x = lo + (hi - lo) * F(num, 10**6)
    e = extrema(rec)
    assert e.inf <= limit_function(rec)(x) <= e.sup


def test_limit_rejects_points_outside_domain():
    law = limit_function(recursion_1px(3))
    with pytest.raises(ValueError):
        law(F(1, 4))
    with pytest.raises(ValueError):
        law(F(3, 2))


def test_piecewise_constructor_rejects_gaps_and_jumps():
    a = Piece(F(1, 2), F(3, 4), F(0), F(0), F(1))
    with pytest.raises(ValueError):
        PiecewiseQuadratic((a, Piece(F(4, 5), F(1), F(0), F(0), F(1))))  # gap
    with pytest.raises(ValueError):
        PiecewiseQuadratic((a, Piece(F(3, 4), F(1), F(0), F(0), F(2))))  # jump
    with pytest.raises(ValueError):
        PiecewiseQuadratic(())
    # one piece, 1/2 at x = 1/2 and 1 at x = 1: not invariant under x -> p*x
    with pytest.raises(ValueError, match="invariant"):
        PiecewiseQuadratic((Piece(F(1, 2), F(1), F(0), F(1), F(0)),))


@pytest.mark.parametrize(
    "rec", [recursion_1px(3), REC_1XX2_MOD2], ids=["OnePlusX(p=3)", "OnePlusXPlusX2Mod2()"]
)
def test_empirical_ratio_approaches_limit(rec):
    law = limit_function(rec)
    lo, hi = law.domain
    for i in range(9):
        x = lo + (hi - lo) * F(i, 8)
        assert abs(empirical_ratio(rec, x, 10) - float(law(x))) <= 0.05


def test_empirical_ratio_validation():
    rec = recursion_1px(3)
    with pytest.raises(ValueError):
        empirical_ratio(rec, F(1, 2), 0)
    with pytest.raises(ValueError):
        empirical_ratio(rec, F(1, 7), 4)


def test_oscillation_table_shape_and_csv():
    rec = recursion_1px(3)
    rows = oscillation_table(rec, 4, 5)
    assert rows == sorted(rows)
    e = extrema(rec)
    # every sampled ratio of a genuine value sits near the limiting band
    for logn, ratio in rows[8:]:
        assert float(e.inf) - 0.35 <= ratio <= float(e.sup) + 0.35
    csv = oscillation_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "logn,ratio"
    assert len(lines) == len(rows) + 1
    with pytest.raises(ValueError):
        oscillation_table(rec, 0, 3)


def test_oscillation_table_shares_its_descents(monkeypatch):
    rec = REC_1XX2_MOD2
    ns = sorted({integer_nthroot(2 ** (3 * k + j), 3)[0] for k in range(1, 61) for j in range(3)})
    # each sample on its own descent, before the rule is counted
    expected = [(math.log(n) / math.log(2), a_from_recursion(rec, n) / (n * n)) for n in ns]
    calls = []
    rule = RecursionSpec._rule

    def counting(self, m, a):
        calls.append(m)
        return rule(self, m, a)

    monkeypatch.setattr(RecursionSpec, "_rule", counting)
    assert oscillation_table(rec, 3, 60) == expected
    # floor(n/2) of a sample is the sample an octave lower, so each a(m) is
    # computed once and each sample adds a few: 180 separate descents of up
    # to 60 digits would apply the rule over 10^4 times
    assert len(calls) == len(set(calls)) <= 4 * len(ns)


def test_oscillation_work_cap():
    rec = recursion_1px(3)
    # 723 octaves take roots of 723*724/2 = 261726 digits in all, 724 of 262450
    assert 723 * 724 // 2 <= asympt.MAX_SAMPLE_DIGITS < 724 * 725 // 2
    with pytest.raises(ValueError, match="over MAX_SAMPLE_DIGITS = 262144"):
        oscillation_table(rec, 1, 724)
    with pytest.raises(ValueError, match="MAX_SAMPLE_DIGITS"):
        oscillation_table(rec, 4, 400)
    # one octave: the roots of 3^(s+j), j < s, sum s(3s-1)/2 digits
    rows = oscillation_table(rec, 418, 1)
    assert rows[0] == oscillation_table(rec, 1, 1)[0] and len(rows) == 6  # n = 3..8
    with pytest.raises(ValueError, match="over MAX_SAMPLE_DIGITS"):
        oscillation_table(rec, 419, 1)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_charpoly_against_sympy(m):
    assert charpoly(m) == [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]


def projection_or_refusal(project, rec):
    """The projection row r/D as fractions, or None for a refusal."""
    try:
        row, denom = project(rec)
    except ArithmeticError:
        return None
    return [F(c, denom) for c in row]


def assert_projection_matches_charpoly(rec):
    expected = projection_or_refusal(projection_row_by_charpoly, rec)
    assert projection_or_refusal(asympt._projection_row, rec) == expected
    return expected


@pytest.mark.parametrize("rec", [recursion_1px(p) for p in (2, 3, 5, 7, 11)] + [
    infer_recursion(FpPoly.make(p, coeffs)) for p, coeffs in (
        (2, [1, 1, 1]), (3, [2, 1, 1]), (5, [1, 1, 1]), (7, [3, 1, 1]),
        (2, [1, 1, 0, 1]), (2, [1, 0, 1, 1]))])
def test_projection_matches_charpoly_on_known_recursions(rec):
    assert assert_projection_matches_charpoly(rec) is not None


@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.lists(st.integers(-5, 9), min_size=1, max_size=3), min_size=p, max_size=p),
    st.integers(-20, 20))))
# M_0 = diag(4, 4, 1): 4 is a simple root of the minimal polynomial but a
# double one of det(tI - M_0).  e_0 M_0 = 4 e_0 for rows ((4, 0), (0, -4)),
# so the minimal polynomial of e_0 alone, t - 4, misses the root -4
@example((2, [[4, 0], [0, 4]], 0))
@example((2, [[4, 0], [0, -4]], 0))
@settings(max_examples=300, deadline=None)
def test_projection_matches_charpoly_on_random_recursions(spec):
    # threshold 6 keeps the descent of rows of up to three shifts at p <= 3,
    # and initials of that length leave no value to check
    p, rows, constant = spec
    assert_projection_matches_charpoly(RecursionSpec(
        p=p, rows=tuple(map(tuple, rows)), constant=constant, initials=(1,) * 6, threshold=6))


@given(st.integers(0, 10**80), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_iroot_against_sympy(n, s):
    assert asympt._iroot(n, s) == integer_nthroot(n, s)[0]


@pytest.mark.parametrize("s", [2, 3, 7])
def test_iroot_at_exact_powers(s):
    for r in (1, 2, 3, 10**9 + 7, 2**100):
        assert asympt._iroot(r**s, s) == r
        assert asympt._iroot(r**s - 1, s) == r - 1
        assert asympt._iroot(r**s + 1, s) == r
