"""Series expansions: the closed form of 1+x, the series derived from any
recursion, and the self-similarity residual as an independent check."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypow import (
    FpPoly,
    RecursionSpec,
    a_1px,
    a_from_recursion,
    closed_form,
    infer_recursion,
    line_complexity_range,
    parse_poly,
    recursion_1px,
    series,
    series_1px,
    series_to_csv,
)
from polypow.genfun import Laurent, _multiplier

from oracles import InconclusiveError, functional_residual, multiplier_by_solve, series_1xx2

R_CUBE = [1, -3, 3, -1]  # (1-z)^3
R_MIXED = [1, -2, 0, 2, -1]  # (1-z^2)(1-z)^2


# --------------------------------------------------------------- 1+x form --


def test_series_1px_mod2_is_quadratic():
    ser = series_1px(2, 300)
    assert ser[0] == 1
    for n in range(1, 301):
        assert ser[n] == n * n - n + 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_series_1px_matches_recursion_values(p):
    ser = series_1px(p, 400)
    assert ser == [a_1px(p, n) for n in range(401)]
    assert ser[0] == 1 and ser[1] == p


@pytest.mark.parametrize("p", [3, 5])
def test_series_1px_matches_exact_counts(p):
    f = FpPoly.make(p, [1, 1])
    assert series_1px(p, 12) == line_complexity_range(f, 12)


def test_series_1xx2_prefix():
    assert series_1xx2(12) == [1, 2, 4, 8, 14, 25, 36, 53, 70, 92, 114, 142, 170]


def test_series_1xx2_matches_recursion_far_out():
    rec = infer_recursion(FpPoly.make(2, [1, 1, 1]))
    assert series_1xx2(600) == [a_from_recursion(rec, n) for n in range(601)]


def test_series_input_validation():
    with pytest.raises(ValueError):
        series_1px(4, 10)
    with pytest.raises(ValueError):
        series_1px(3, -1)
    with pytest.raises(ValueError):
        series_1xx2(-2)
    with pytest.raises(ValueError):
        series(recursion_1px(3), -1)


# ---------------------------------------------------------- derived forms --

# Every polynomial whose recursion the tests infer, with a length its
# closure reaches in well under a second.
INFERRED = [
    ("1+x+x^2", 2, 300), ("1+x+x^2", 3, 150), ("2+x+x^2", 3, 150),
    ("1+x+x^2", 5, 60), ("2+x+x^2", 5, 60), ("3+x+x^2", 5, 60), ("4+x+x^2", 5, 60),
    ("1+x+x^2", 7, 40), ("1+x+x^3", 2, 200), ("1+x^2+x^3", 2, 200),
    ("1+x+x^2+x^3", 2, 200), ("3+x", 5, 60), ("1+x^2", 3, 100), ("x+x^2", 2, 200),
]


def _recursion(poly, p):
    return recursion_1px(p) if poly == "1+x" else infer_recursion(parse_poly(poly, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_derived_series_equals_the_closed_form_1px(p):
    assert series(recursion_1px(p), 2000) == series_1px(p, 2000)


def test_derived_series_equals_the_closed_form_1xx2_mod2():
    assert series(infer_recursion(FpPoly.make(2, [1, 1, 1])), 600) == series_1xx2(600)


@pytest.mark.parametrize("poly,p,n", INFERRED + [("1+x", 3, 200)],
                         ids=lambda v: str(v) if isinstance(v, str) else None)
def test_derived_series_equals_the_closure(poly, p, n):
    rec, want = _recursion(poly, p), line_complexity_range(parse_poly(poly, p), n)
    assert series(rec, n) == want


@pytest.mark.parametrize(
    "poly,p,r",
    [
        ("1+x", 2, Laurent(-2, (-1, 3, -3, 1))),  # (z-1)^3/z^2
        ("1+x", 7, Laurent(-2, (-1, 3, -3, 1))),
        ("1+x+x^2", 2, Laurent(-3, (-1, 2, 0, -2, 1))),  # (z-1)^3(z+1)/z^3
        ("1+x+x^3", 2, Laurent(-4, (-1, 2, -1, 1, -2, 1))),  # (z-1)^3(z^2+z+1)/z^4
    ],
)
def test_closed_form_multiplier(poly, p, r):
    assert closed_form(_recursion(poly, p))[0] == r


@pytest.mark.parametrize("poly,p", [("1+x", q) for q in (2, 3, 5, 7)]
                         + [(poly, p) for poly, p, _ in INFERRED])
def test_residual_reproduces_the_derived_b(poly, p):
    # functional_residual reads the tail s = z^lo (G - head), head the
    # first -lo terms, with r~ = z^-lo r, so its residual is
    # b(z) - (r head)(z) + (r head)(z^p)
    rec = _recursion(poly, p)
    r, b = closed_form(rec)
    values = series(rec, 64 * p + 64)
    want = dict(zip(range(b.lo, b.lo + len(b.coeffs)), b.coeffs))
    for i, ri in enumerate(r.coeffs):
        for n, a in enumerate(values[:-r.lo]):
            e = r.lo + i + n
            want[e] = want.get(e, 0) - ri * a
            want[p * e] = want.get(p * e, 0) + ri * a
    assert all(c == 0 for e, c in want.items() if e < 0)
    rep = functional_residual(values[-r.lo:], list(r.coeffs), p)
    top = max((e for e, c in want.items() if c), default=0)
    assert rep.degree_bound == top
    assert rep.residual == tuple(want.get(e, 0) for e in range(top + 1))


def test_closed_form_refuses_a_recursion_without_r():
    # a(n) of 1+x^2 mod 2 is a quasi-polynomial, differences 1, 1, 2, 2, 4,
    # 4, 6, 6, ..., whose generating function has the pole z = -1 that no
    # r(z^p)/r(z) can supply
    f = FpPoly.make(2, [1, 0, 1])
    values = line_complexity_range(f, 200)
    assert [b - a for a, b in zip(values, values[1:])] == [max(1, n - n % 2) for n in range(200)]
    rec = infer_recursion(f)
    assert (rec.rows, rec.constant) == (((1, 3, 1, -1), (0, 3, 2, -1)), 7)
    with pytest.raises(ArithmeticError, match="no Laurent polynomial r"):
        closed_form(rec)
    with pytest.raises(ArithmeticError, match="no Laurent polynomial r"):
        series(rec, 10)


def _multiplier_or_refusal(solve, rec):
    try:
        return solve(rec)
    except ArithmeticError as err:
        return str(err)


def _top_coefficient(rec):
    c_poly = {k - rec.p * j: c for k, row in enumerate(rec.rows) for j, c in enumerate(row) if c}
    return c_poly[max(c_poly)]


def _nudged(rec):
    """Copies of rec with one coefficient moved by +-1: unlike random rows,
    most keep C's top coefficient 1, so an equation below the top refuses them."""
    for k, row in enumerate(rec.rows):
        for j in range(len(row)):
            for d in (-1, 1):
                rows = list(rec.rows)
                rows[k] = row[:j] + (row[j] + d,) + row[j + 1:]
                # the initials past the threshold would contradict the new rule
                yield replace(rec, rows=tuple(rows), initials=rec.initials[:rec.threshold])


@st.composite
def small_recursions(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = tuple(tuple(draw(st.lists(st.integers(-3, 3), max_size=3))) for _ in range(p))
    return RecursionSpec(p=p, rows=rows, constant=draw(st.integers(-5, 5)),
                         initials=(1,) * 6, threshold=6)


@given(small_recursions())
@settings(max_examples=200, deadline=None)
def test_multiplier_equals_the_exact_solve_on_random_recursions(rec):
    assert _multiplier_or_refusal(_multiplier, rec) == _multiplier_or_refusal(multiplier_by_solve, rec)


@pytest.mark.parametrize("poly,p", [(poly, p) for poly, p, _ in INFERRED]
                         + [("1+x", q) for q in (2, 3, 5, 7, 11, 13)])
def test_multiplier_equals_the_exact_solve_on_known_recursions(poly, p):
    rec = _recursion(poly, p)
    assert _multiplier(rec) == multiplier_by_solve(rec)
    below_top = 0
    for nudged in _nudged(rec):
        got = _multiplier_or_refusal(_multiplier, nudged)
        assert got == _multiplier_or_refusal(multiplier_by_solve, nudged)
        below_top += _top_coefficient(nudged) == 1 and "no Laurent" in str(got)
    assert below_top


@pytest.mark.parametrize("poly,p,top,refusal", [
    ("1", 2, 2, "no Laurent polynomial r"),  # a(2n+1) = 2a(n): C_top r_hi = r_hi fails
    ("1+x^2", 2, 1, "no Laurent polynomial r"),  # the z^-7 to z^-12 equations fail
    ("2", 5, 5, "the support .-5/4, 4/4. of r is not integral"),
])
def test_multiplier_refusals_name_their_cause(poly, p, top, refusal):
    rec = infer_recursion(parse_poly(poly, p))
    assert _top_coefficient(rec) == top
    for solve in (_multiplier, multiplier_by_solve):
        with pytest.raises(ArithmeticError, match=refusal):
            solve(rec)


# ------------------------------------------------------------- residuals ----


def test_residual_exact_for_mod2():
    rep = functional_residual(series_1px(2, 256), R_CUBE, 2)
    # -z + 2z^2 + z^3 - z^4 - z^6
    assert rep.residual == (0, -1, 2, 1, -1, 0, -1)
    assert rep.degree_bound == 6
    assert rep.checked_to == 256


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residual_certified_on_tail_series(p):
    # a(n)/n^2 has a quadratic head; the self-similar part is the tail
    # h(z) = sum a(n+2) z^n, and (1-z)^3 h(z) - (1-z^p)^3 h(z^p) closes
    # with degree exactly 2p (top coefficient -p).
    rep = functional_residual(series_1px(p, 1024)[2:], R_CUBE, p)
    assert rep.degree_bound == 2 * p
    assert rep.residual[-1] == -p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residual_open_on_full_series(p):
    # with the quadratic head left in, the residual keeps a lacunary tail
    # (support near powers of p), so no finite bound can be certified
    rep = functional_residual(series_1px(p, 1024), R_CUBE, p)
    assert rep.degree_bound is None


def test_residual_certified_for_1xx2():
    # same head/tail split as 1+x: the numerator's lacunary sum carries a z^3
    # prefactor, so the equation closes on h(z) = sum a(n+3) z^n
    rep = functional_residual(series_1xx2(1024)[3:], R_MIXED, 2)
    assert rep.degree_bound == 6
    assert rep.residual == (0, -2, -1, 2, 4, 0, -3)


def test_residual_not_certified_for_wrong_multiplier():
    # (1-z) alone does not close the equation; the tail never vanishes
    rep = functional_residual(series_1px(2, 512), [1, -1], 2)
    assert rep.degree_bound is None


def test_residual_zero_series():
    rep = functional_residual([0] * 100, R_CUBE, 2)
    assert rep.residual == (0,)
    assert rep.degree_bound == 0


def test_residual_rejects_short_prefix_and_bad_r():
    with pytest.raises(InconclusiveError):
        functional_residual(series_1px(3, 10), R_CUBE, 3)
    with pytest.raises(ValueError):
        functional_residual(series_1px(2, 100), [1, 0], 2)
    with pytest.raises(ValueError):
        functional_residual(series_1px(2, 100), [], 2)


def test_series_to_csv_layout():
    assert series_to_csv([1, 2, 4]) == "n,a_n\n0,1\n1,2\n2,4\n"


def test_closed_form_refusals_and_edge_cases():
    # C(z) = 1 + z at p = 3 would need r supported on [0, 1/2]
    rec = RecursionSpec(p=3, rows=((1,), (1,), ()), constant=0, initials=(1,), threshold=1)
    with pytest.raises(ArithmeticError, match="not integral"):
        closed_form(rec)
    # every row empty: C(z) = 0
    rec = RecursionSpec(p=2, rows=((), ()), constant=-5, initials=(5,), threshold=1)
    with pytest.raises(ArithmeticError, match="no Laurent polynomial r"):
        closed_form(rec)
    # a(2n) = a(n), a(2n+1) = -K: C(z) = 1 gives r = 1, which (1 - z)
    # divides only when K = 0
    rec = RecursionSpec(p=2, rows=((1,), ()), constant=0, initials=(5,), threshold=1)
    assert closed_form(rec) == (Laurent(0, (1,)), Laurent(0, (0,)))
    assert series(rec, 6) == [5, 0, 0, 0, 0, 0, 0]
    rec = RecursionSpec(p=2, rows=((1,), ()), constant=1, initials=(5,), threshold=1)
    with pytest.raises(ArithmeticError, match="does not divide r"):
        closed_form(rec)
