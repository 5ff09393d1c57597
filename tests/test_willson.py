"""Transfer systems for nonzero-count growth at p=2: construction, counts,
exact spectra, similarity classes, and the eigenvalue bound.

The count oracle is always brute force: expand rows of f^k and tally digits.
"""

import math
import signal
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy

from polypow import (
    TOTAL,
    CountMismatch,
    FpPoly,
    build_transfer,
    canonicalize,
    cumulative_count,
    eigen_bound,
    enumerate_classes,
    minpoly_of_lambda,
    parse_poly,
    perron,
    poly_pow,
    survey,
    survey_tsv,
    verify_counts,
)
from polypow._zzpoly import largest_real_root, sign_at
from polypow.willson import MAX_TRANSFER_DEGREE, count_sequence

P1X = FpPoly.make(2, [1, 1])
P1XX2 = FpPoly.make(2, [1, 1, 1])
P1XX3 = FpPoly.make(2, [1, 1, 0, 1])


X = sympy.Symbol("x")


def mat_vec(m, v):
    return [sum(r * x for r, x in zip(row, v)) for row in m]


def dense_b(sys, states=None, tables=None):
    """B over `states` (default: the trimmed ones), one entry per map edge.

    tables defaults to all four maps; sys.maps[2*eps:2*eps+2] gives B_eps.
    """
    states = sys.trimmed if states is None else states
    tables = sys.maps if tables is None else tables
    return [[sum(table[s] == t for table in tables) for s in states] for t in states]


def sympy_charpoly(mat):
    # ascending coefficients, monic
    return [int(c) for c in reversed(sympy.Matrix(mat).charpoly().all_coeffs())]


def sympy_poly(c):
    return sympy.Poly(list(reversed(c)), X)


def divides(m, c) -> bool:
    return sympy.rem(sympy_poly(c), sympy_poly(m)).is_zero


# ---------------------------------------------------------- construction ----


def test_transfer_1px_trimmed_shape():
    sys = build_transfer(P1X)
    assert sys.window == 2
    assert len(sys.states) == 3  # 2^(d+1)-1 nonzero windows
    assert [sys.state_string(s) for s in sys.trimmed] == ["10", "11"]
    assert dense_b(sys) == [[2, 1], [1, 2]]
    assert sys.trimmed_u == (1, 1)
    assert sys.trimmed_v == (1, 0)


def test_transfer_requires_mod2_and_unit_constant():
    with pytest.raises(ValueError):
        build_transfer(FpPoly.make(3, [1, 1]))
    with pytest.raises(ValueError):
        build_transfer(FpPoly.make(2, [0, 1]))  # strip the x factor first


def test_transfer_degree_is_capped_before_allocating():
    top = parse_poly(f"1+x+x^{MAX_TRANSFER_DEGREE}", 2)
    assert len(build_transfer(top).states) == 2 ** (MAX_TRANSFER_DEGREE + 1) - 1
    with pytest.raises(ValueError, match="MAX_TRANSFER_DEGREE"):
        build_transfer(parse_poly(f"1+x+x^{MAX_TRANSFER_DEGREE + 1}", 2))
    # 1+x+x^22 would need 2^23 states and gigabytes
    with pytest.raises(ValueError, match="MAX_TRANSFER_DEGREE"):
        build_transfer(parse_poly("1+x+x^22", 2))
    with pytest.raises(ValueError, match="MAX_TRANSFER_DEGREE"):
        enumerate_classes(MAX_TRANSFER_DEGREE + 1)
    with pytest.raises(ValueError, match="MAX_TRANSFER_DEGREE"):
        survey(MAX_TRANSFER_DEGREE + 1)


@pytest.mark.parametrize("f", [P1X, P1XX2, P1XX3], ids=["1+x", "1+x+x^2", "1+x+x^3"])
def test_u_dot_v_is_one(f):
    sys = build_transfer(f)
    assert sum(a * b for a, b in zip(sys.u, sys.v)) == 1
    # v marks exactly the d+1 windows of row 0
    assert sum(sys.v) == sys.window


@pytest.mark.parametrize("f", [P1X, P1XX2, P1XX3], ids=["1+x", "1+x+x^2", "1+x+x^3"])
def test_four_outgoing_edges_counting_zero(f):
    sys = build_transfer(f)
    b = dense_b(sys, sys.states)
    for j, s in enumerate(sys.states):
        into_zero = sum(1 for table in sys.maps if table[s] == 0)
        assert sum(b[i][j] for i in range(len(sys.states))) + into_zero == 4


@pytest.mark.parametrize("f", [P1X, P1XX2, P1XX3], ids=["1+x", "1+x+x^2", "1+x+x^3"])
def test_trimming_preserves_growth_products(f):
    sys = build_transfer(f)
    b_full, b_trim = dense_b(sys, sys.states), dense_b(sys)
    full, trim = list(sys.v), list(sys.trimmed_v)
    for _ in range(11):
        got_full = sum(a * b for a, b in zip(sys.u, full))
        got_trim = sum(a * b for a, b in zip(sys.trimmed_u, trim))
        assert got_full == got_trim
        full = mat_vec(b_full, full)
        trim = mat_vec(b_trim, trim)


@pytest.mark.parametrize("f", [P1X, P1XX2, P1XX3], ids=["1+x", "1+x+x^2", "1+x+x^3"])
def test_scatter_adds_match_dense_matrices(f):
    sys = build_transfer(f)
    rng = np.random.default_rng(7)
    batch = rng.integers(-9, 10, size=(5, len(sys.trimmed)))
    for eps, tables in ((None, None), (0, sys.maps[0:2]), (1, sys.maps[2:4])):
        b = dense_b(sys, tables=tables)
        want = [mat_vec(b, list(w)) for w in batch]
        assert sys.apply(batch, eps).tolist() == want
        assert sys.apply(batch[0], eps).tolist() == want[0]


# ------------------------------------------------------------- counting -----


def test_counts_1px_are_powers_of_three():
    sys = build_transfer(P1X)
    assert count_sequence(sys, 11) == [3**k for k in range(11)]
    for k in range(11):
        assert cumulative_count(P1X, 2**k, TOTAL) == 3**k
    # exact far past int64
    assert count_sequence(sys, 60)[-1] == 3**59


@pytest.mark.parametrize("f", [P1X, P1XX2, P1XX3], ids=["1+x", "1+x+x^2", "1+x+x^3"])
def test_verify_counts_against_brute_force(f):
    assert verify_counts(build_transfer(f), 8) is True


def test_verify_counts_detects_tampering():
    sys = build_transfer(P1X)
    bad = replace(sys, v=tuple(2 * x for x in sys.v))
    got = verify_counts(bad, 3)
    assert got is not True
    assert not got  # falsy mismatch record
    assert got.kind == "cumulative" and got.index == 0
    assert bool(CountMismatch("row", 1, 2, 3)) is False


def test_verify_counts_detects_swapped_parities():
    # B0 + B1 and so every cumulative count is unchanged; only rows see it
    sys = build_transfer(P1XX2)
    swapped = replace(sys, maps=sys.maps[2:4] + sys.maps[0:2])
    got = verify_counts(swapped, 4)
    assert not got
    assert got.kind == "row"


# --------------------------------------------------------------- spectra ----


def test_perron_1px_is_exactly_three():
    res = perron(build_transfer(P1X))
    assert res.lam == 3.0
    assert res.interval == (Fraction(3), Fraction(3))
    assert res.recurrence == (-3, 1)
    assert sympy_charpoly(dense_b(build_transfer(P1X))) == [3, -4, 1]
    assert res.minpoly == (-3, 1)
    assert res.degree == 1


def test_perron_1xx2_golden_quadratic():
    res = perron(build_transfer(P1XX2))
    assert abs(res.lam - (1 + math.sqrt(5))) < 1e-9
    assert res.minpoly == (-4, -2, 1)
    assert res.degree == 2
    # the quadratic is the count recurrence and divides the characteristic
    # polynomial of the trimmed matrix
    assert res.recurrence == (-4, -2, 1)
    assert divides([-4, -2, 1], sympy_charpoly(dense_b(build_transfer(P1XX2))))


# the recurrence of 1+x+x^2+x^5 splits into factors of degree 2 and 7
@pytest.mark.parametrize(
    "f",
    [P1XX2, P1XX3, FpPoly.make(2, [1, 1, 1, 0, 0, 1])],
    ids=["1+x+x^2", "1+x+x^3", "1+x+x^2+x^5"],
)
def test_minpoly_certificates(f):
    sys = build_transfer(f)
    res = perron(sys)
    m = list(res.minpoly)
    assert divides(m, list(res.recurrence))
    assert divides(m, sympy_charpoly(dense_b(sys)))
    assert sympy.Poly(list(reversed(m)), sympy.Symbol("x")).is_irreducible
    lo, hi = res.interval
    # the isolated root of the minimal polynomial is the eigenvalue itself
    assert sign_at(m, lo) == 0 or sign_at(m, hi) == 0 or sign_at(m, lo) != sign_at(m, hi)


@pytest.mark.parametrize(
    "f", [c.canonical for c in enumerate_classes(4)], ids=lambda f: f"{f.coeffs}"
)
def test_recurrence_against_sympy_charpoly(f):
    sys = build_transfer(f)
    res = perron(sys)
    rec = list(res.recurrence)
    b = dense_b(sys)
    # the count sequence, independently, from the dense matrix
    seq, w = [], list(sys.trimmed_v)
    for _ in range(3 * len(b) + 3):
        seq.append(sum(a * x for a, x in zip(sys.trimmed_u, w)))
        w = mat_vec(b, w)
    assert all(
        sum(c * s for c, s in zip(rec, seq[k:])) == 0
        for k in range(len(seq) - len(rec) + 1)
    )
    cp = sympy_charpoly(b)
    assert divides(rec, cp)
    # no shorter recurrence: the order x order Hankel matrix is regular
    order = len(rec) - 1
    assert sympy.Matrix(order, order, lambda i, j: seq[i + j]).det() != 0
    # the bracket holds the largest real eigenvalue of the trimmed matrix,
    # and that eigenvalue is a root of the irreducible minpoly
    top = max(sympy_poly(cp).real_roots())
    lo, hi = res.interval
    assert sympy.Rational(lo.numerator, lo.denominator) <= top
    assert top <= sympy.Rational(hi.numerator, hi.denominator)
    assert hi - lo <= Fraction(1, 10**9)
    minpoly = sympy_poly(res.minpoly)
    assert minpoly.is_irreducible
    assert max(minpoly.real_roots()) == top


def test_minpoly_is_the_factor_the_bracket_holds():
    # (x^2 - 5)(x^3 - 2): the largest root, sqrt(5), is in the shorter factor
    rec = [10, 0, -2, -5, 0, 1]
    assert minpoly_of_lambda(rec, largest_real_root(rec)) == (-5, 0, 1)


def test_dimension_bracket():
    for f in (P1X, P1XX2, P1XX3):
        res = perron(build_transfer(f))
        assert 1.0 <= res.dimension <= 2.0
        assert res.dimension == math.log2(res.lam)


def test_lambda_invariant_under_similarity():
    base = perron(build_transfer(P1XX3)).lam
    reverse = perron(build_transfer(P1XX3.reverse())).lam
    square = perron(build_transfer(poly_pow(P1XX3, 2))).lam
    assert abs(base - reverse) <= 1e-9
    assert abs(base - square) <= 1e-9


# ----------------------------------------------------------- similarity -----


def test_canonicalize_reduction_moves():
    assert canonicalize(FpPoly.make(2, [0, 1, 1])).canonical == P1X  # strip x
    assert canonicalize(FpPoly.make(2, [1, 0, 1])).canonical == P1X  # square root
    got = canonicalize(FpPoly.make(2, [1, 0, 1, 1]))  # reversal is smaller
    assert got.canonical == P1XX3
    assert canonicalize(P1XX3).canonical == P1XX3  # already reduced
    # substitution x -> x^2 undone
    assert canonicalize(FpPoly.make(2, [1, 0, 1, 0, 0, 0, 1])).canonical == P1XX3


def test_canonicalize_identifies_squares_of_shifts():
    # x^2 + x^3 = x^2 (1 + x): strip then nothing else to do
    assert canonicalize(FpPoly.make(2, [0, 0, 1, 1])).canonical == P1X
    # (1+x)^3 is a power of 1+x
    assert canonicalize(poly_pow(P1X, 3)).canonical == P1X


def test_canonicalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        canonicalize(FpPoly.make(3, [1, 1]))
    with pytest.raises(ValueError):
        canonicalize(FpPoly.make(2, [0]))


def test_enumerate_classes_small_degrees():
    assert [c.canonical for c in enumerate_classes(1)] == [P1X]
    got2 = {c.canonical for c in enumerate_classes(2)}
    assert got2 == {P1X, P1XX2}
    assert len(enumerate_classes(3)) == 3
    assert len(enumerate_classes(4)) == 7


def test_enumerate_classes_members_are_fixed_points():
    for cls in enumerate_classes(4):
        assert cls.canonical.coeffs[0] == 1
        assert canonicalize(cls.canonical).canonical == cls.canonical


# ----------------------------------------------------------------- bound ----


def test_eigen_bound_values():
    assert eigen_bound(1) == 3.0
    assert abs(eigen_bound(2) - math.sqrt(14)) < 1e-12
    bounds = [eigen_bound(d) for d in range(1, 10)]
    assert bounds == sorted(bounds)
    assert all(b < 4.0 for b in bounds)
    with pytest.raises(ValueError):
        eigen_bound(0)


def test_survey_deg3_report():
    result = survey(3, depth=4)
    assert len(result.rows) == 3
    for row in result.rows:
        assert row.bound_ok
        assert 3.0 <= row.result.lam < 4.0
        assert row.result.degree <= 2 ** (row.poly.degree - 1)
    ks = [k for k, _ in result.lambda_max]
    vals = [v for _, v in result.lambda_max]
    assert ks == [1, 2, 3]
    assert vals == sorted(vals)
    assert vals[0] == 3.0
    assert abs(vals[1] - (1 + math.sqrt(5))) < 1e-9

    tsv = survey_tsv(result)
    lines = tsv.strip().split("\n")
    assert lines[0] == "poly\tlambda\tdegree\tdimension\tbound_ok"
    assert len(lines) == 4
    assert lines[1].startswith("1+x\t3")


def test_spectral_pipeline_leaves_the_callers_alarm_alone():
    # factoring runs to completion on its own; it must neither replace the
    # caller's SIGALRM handler nor cancel the caller's interval timer
    fired = []

    def handler(signum, frame):
        fired.append(signum)

    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 100.0)
        result = survey(3, depth=2)
        assert all(row.result.degree == len(row.result.minpoly) - 1 for row in result.rows)
        assert signal.getsignal(signal.SIGALRM) is handler
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 90.0 < remaining <= 100.0
        assert fired == []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def test_survey_deg3_has_no_lambda_collisions():
    # 3, 1+sqrt(5) and the degree-3 growth rate are pairwise distinct
    result = survey(3, depth=0)
    assert result.collisions == ()
    lams = [row.result.lam for row in result.rows]
    assert len(set(lams)) == len(lams)
