"""Transfer systems for nonzero-count growth mod p: construction, counts,
exact spectra, similarity classes, and the eigenvalue bound.

The count oracle is always brute force: expand rows of f^k and tally digits.
At p = 2 the window maps are also checked against an independent bitmask
construction that shares no code with the closure, and the canonical forms
against a bitmask search that factors by trial division.
"""

import math
import signal
import time
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
import sympy

from polypow import (
    TOTAL,
    FpPoly,
    SpectralMismatchError,
    TransferSystem,
    build_transfer,
    canonicalize,
    cumulative_count,
    eigen_bound,
    enumerate_classes,
    parse_poly,
    perron,
    poly_pow,
    spectrum,
    survey,
    survey_tsv,
    verify_counts,
)
from polypow import willson
from polypow._zzpoly import factor_int_poly, may_vanish
from polypow.cli import main
from polypow.willson import (
    MAX_TRANSFER_EDGES,
    MAX_VERIFY_CELLS,
    MAX_VERIFY_ROWS,
    count_sequence,
)

from oracles import (
    apply_by_scatter,
    canonical_by_search,
    dense_krylov,
    dense_values,
    digits_to_text,
    minimal_polynomial_by_nullspace,
)

P1X = FpPoly.make(2, [1, 1])
P1XX2 = FpPoly.make(2, [1, 1, 1])
P1XX3 = FpPoly.make(2, [1, 1, 0, 1])


X = sympy.Symbol("x")


def mat_vec(m, v):
    return [sum(r * x for r, x in zip(row, v)) for row in m]


def dense_b(sys, rows=None):
    """B over the states, one entry per map edge; rows=[r] gives B_r."""
    n = len(sys.states)
    b = [[0] * n for _ in range(n)]
    for r in range(sys.f.p) if rows is None else rows:
        for table in sys.maps[r].tolist():
            for s, t in enumerate(table):
                if t >= 0:
                    b[t][s] += 1
    return b


def state_strings(sys):
    return [digits_to_text(row) for row in sys.states.tolist()]


def bitmask_transfer(f):
    """The p = 2 window maps built from bitmasks, with forward and backward trims.

    A state is a mask over a length d+1 window (bit j = digit a_(t+j)).
    maps[2*eps+delta] sends each mask to its child window in row 2m+eps,
    0 included as the absorbing zero window.  Returns the maps, the vectors u
    and v over masks 1..2^(d+1)-1, the masks reachable from v and those
    that also reach u.
    """
    d = f.degree
    lwin = d + 1
    coeff_rows = ((1,), f.coeffs)  # child row parity 2m+eps picks row of 1 or of f
    size = 1 << lwin
    maps = []
    for eps in (0, 1):
        for delta in (0, 1):
            # contribution of parent digit j to the child window, as a bitmask
            # over child positions r; XOR of single-digit masks by linearity
            digit_masks = []
            for j in range(lwin):
                m = 0
                for r in range(lwin):
                    idx = d - 1 + delta + r - 2 * j
                    if 0 <= idx < len(coeff_rows[eps]) and coeff_rows[eps][idx]:
                        m |= 1 << r
                digit_masks.append(m)
            table = [0] * size
            for s in range(1, size):
                low = (s & -s).bit_length() - 1
                table[s] = table[s & (s - 1)] ^ digit_masks[low]
            maps.append(table)
    u = [0] + [s & 1 for s in range(1, size)]
    v = [0] + [1 if s & (s - 1) == 0 else 0 for s in range(1, size)]
    forward = {s for s in range(1, size) if s & (s - 1) == 0}
    queue = list(forward)
    while queue:
        s = queue.pop()
        for table in maps:
            t = table[s]
            if t and t not in forward:
                forward.add(t)
                queue.append(t)
    parents = {s: set() for s in range(1, size)}
    for s in range(1, size):
        for table in maps:
            if table[s]:
                parents[table[s]].add(s)
    backward = {s for s in range(1, size) if s & 1}
    queue = list(backward)
    while queue:
        s = queue.pop()
        for q in parents[s]:
            if q not in backward:
                backward.add(q)
                queue.append(q)
    return maps, u, v, sorted(forward), sorted(forward & backward)


def bitmask_counts(f, terms, trim=False):
    """u.B^k.v for k < terms from bitmask_transfer, over all its nonzero
    masks or (trim=True) over the trimmed ones."""
    maps, u, v, _, trimmed = bitmask_transfer(f)
    keep = set(trimmed) if trim else set(range(1, len(u)))
    w = [x if s in keep else 0 for s, x in enumerate(v)]
    out = []
    for _ in range(terms):
        out.append(sum(a * x for a, x in zip(u, w)))
        nxt = [0] * len(w)
        for s in keep:
            for table in maps:
                if table[s] in keep:
                    nxt[table[s]] += w[s]
        w = nxt
    return out


def mask_string(mask, width):
    return "".join("1" if mask >> j & 1 else "0" for j in range(width))


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
    # every nonzero 2-window is accessible, and none is trimmed
    assert state_strings(sys) == ["01", "10", "11"]
    assert sys.trimmed is sys.states
    assert sys.maps.shape == (2, 2, 3)
    # 10 only feeds itself; 01 and 11 feed each other
    assert dense_b(sys) == [[2, 0, 1], [0, 2, 1], [1, 0, 2]]
    assert sys.u.tolist() == [False, True, True]
    assert sys.v.tolist() == [1, 1, 0]


def test_transfer_requires_nonzero_constant():
    with pytest.raises(ValueError):
        build_transfer(FpPoly.make(2, [0, 1]))  # strip the x factor first
    with pytest.raises(ValueError):
        build_transfer(FpPoly.make(3, [0, 1, 2]))


def test_transfer_degree_is_capped_before_allocating():
    # p^(d+3) edges: degree 12 is the last one allowed at p = 2
    assert MAX_TRANSFER_EDGES == 2**15
    top = parse_poly("1+x+x^12", 2)
    assert len(build_transfer(top).states) < 2**13
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        build_transfer(parse_poly("1+x+x^13", 2))
    # 1+x+x^22 would need 2^23 states and gigabytes
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        build_transfer(parse_poly("1+x+x^22", 2))
    # 11^5 = 161051 edges; 13^4 = 28561 pass and 17^4 = 83521 do not
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        build_transfer(parse_poly("1+x+x^2", 11))
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        build_transfer(parse_poly("1+x", 17))
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        enumerate_classes(13)
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        survey(13)
    # a huge degree is refused without building p^(d+3)
    with pytest.raises(ValueError, match="MAX_TRANSFER_EDGES"):
        enumerate_classes(10**12)


P3_QUAD = FpPoly.make(3, [1, 1, 1])
SMALL = [P1X, P1XX2, P1XX3, P3_QUAD]
SMALL_IDS = ["1+x", "1+x+x^2", "1+x+x^3", "1+x+x^2 mod 3"]


@pytest.mark.parametrize("f", SMALL, ids=SMALL_IDS)
def test_u_dot_v_is_one(f):
    sys = build_transfer(f)
    assert sum(a * b for a, b in zip(sys.u, sys.v)) == 1
    # v marks exactly the d+1 windows of row 0
    assert sum(sys.v) == f.degree + 1 == sys.states.shape[1]


@pytest.mark.parametrize("f", SMALL, ids=SMALL_IDS)
def test_four_outgoing_edges_counting_zero(f):
    # p*p cuts per state, four at p = 2
    sys = build_transfer(f)
    b = dense_b(sys)
    for j in range(len(sys.states)):
        into_zero = int((sys.maps[:, :, j] < 0).sum())
        assert sum(b[i][j] for i in range(len(sys.states))) + into_zero == f.p**2


@pytest.mark.parametrize("f", SMALL, ids=SMALL_IDS)
def test_trimming_preserves_growth_products(f):
    sys = build_transfer(f)
    b = dense_b(sys)
    n = len(sys.states)
    # every state lies on a v -> u path, so a trim would keep them all
    forward = {s for s in range(n) if sys.v[s]}
    backward = {s for s in range(n) if sys.u[s]}
    for _ in range(n):
        forward |= {t for s in forward for t in range(n) if b[t][s]}
        backward |= {s for t in backward for s in range(n) if b[t][s]}
    assert forward == backward == set(range(n))
    want = count_sequence(sys, 11)
    w = sys.v.tolist()
    for k in range(11):
        assert sum(a * x for a, x in zip(sys.u.tolist(), w)) == want[k]
        w = mat_vec(b, w)
    if f.p == 2:
        # the bitmask system has states off every v -> u path; trimming them
        # keeps every product
        assert bitmask_counts(f, 11) == bitmask_counts(f, 11, trim=True) == want


@pytest.mark.parametrize("f", SMALL, ids=SMALL_IDS)
def test_scatter_adds_match_dense_matrices(f):
    sys = build_transfer(f)
    rng = np.random.default_rng(7)
    batch = rng.integers(-9, 10, size=(5, len(sys.trimmed)))
    for eps in (None, *range(f.p)):
        b = dense_b(sys, None if eps is None else [eps])
        want = [mat_vec(b, list(w)) for w in batch]
        assert sys.apply(batch, eps).tolist() == want
        assert sys.apply(batch[0], eps).tolist() == want[0]


@pytest.mark.parametrize("f", SMALL, ids=SMALL_IDS)
def test_transfer_representation_against_the_dense_oracle(f):
    # the row vectors of m < p^depth, B's walk from v, and mu of v
    sys = build_transfer(f)
    rep, n = sys.rep, len(sys.states)
    matrices = [dense_b(sys, [r]) for r in range(f.p)]
    depth = 7 if f.p == 2 else 4
    assert rep.values(depth).tolist() == dense_values(
        matrices, rep.left.tolist(), rep.right.tolist(), depth)
    walk = dense_krylov(np.sum(matrices, axis=0).tolist(), rep.right.tolist(), 2 * n + 2)
    assert [w.tolist() for w in islice(rep.krylov(rep.right), 2 * n + 2)] == walk
    assert rep.minimal_polynomial(rep.right) == minimal_polynomial_by_nullspace(walk)


# every f mod 3 of degree 1 to 3 with f(0) != 0
MOD3_UP_TO_3 = [FpPoly.make(3, [c0, *mid, top]) for d in (1, 2, 3) for c0 in (1, 2)
                for mid in np.ndindex(*(3,) * (d - 1)) for top in (1, 2)]


@pytest.mark.parametrize("f", enumerate_classes(6) + MOD3_UP_TO_3,
                         ids=lambda f: f"{digits_to_text(f.coeffs)}-mod{f.p}")
def test_apply_equals_the_scatter_add_oracle(f):
    sys = build_transfer(f)
    n = len(sys.states)
    # exact vectors past 2^64: B^k.v for k <= 44, walked by the oracle
    w = sys.v.astype(object)
    for _ in range(45):
        for eps in (None, *range(f.p)):
            assert sys.apply(w, eps).tolist() == apply_by_scatter(sys, w, eps).tolist()
        w = apply_by_scatter(sys, w)
    assert max(w) >= 2**64
    # stacked int64 batches, of one and of two stacking axes
    rng = np.random.default_rng(n)
    for shape in ((n,), (5, n), (2, 3, n)):
        batch = rng.integers(-9, 10, size=shape)
        for eps in (None, *range(f.p)):
            got, want = sys.apply(batch, eps), apply_by_scatter(sys, batch, eps)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_apply_without_edges_is_zero():
    sys = build_transfer(P1XX2)
    empty = replace(sys, maps=np.full_like(sys.maps, -1))
    for w in (sys.v.astype(object), np.ones((3, len(sys.states)), np.int64)):
        for eps in (None, 0, 1):
            assert not empty.apply(w, eps).any()
    # a B_r with no edge of its own gathers nothing, beside rows that do
    half = replace(sys, maps=np.stack([sys.maps[0], np.full_like(sys.maps[1], -1)]))
    assert not half.apply(sys.v, 1).any()
    assert np.array_equal(half.apply(sys.v), sys.apply(sys.v, 0))


@pytest.mark.parametrize(
    "f", enumerate_classes(6), ids=lambda f: f"{f.coeffs}"
)
def test_window_maps_agree_with_bitmask_oracle(f):
    sys = build_transfer(f)
    _, _, _, forward, _ = bitmask_transfer(f)
    # the states reachable from row 0 are exactly the closure's nonzero windows
    assert sorted(mask_string(s, f.degree + 1) for s in forward) == state_strings(sys)
    terms = 2 * len(sys.states) + 2
    assert count_sequence(sys, terms) == bitmask_counts(f, terms)


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
    assert verify_counts(build_transfer(f), 8) is None


@pytest.mark.parametrize(
    "f,depth",
    [(P3_QUAD, 8), (FpPoly.make(3, [2, 1, 1]), 8), (FpPoly.make(5, [1, 1, 1]), 5)],
    ids=["1+x+x^2 mod 3", "2+x+x^2 mod 3", "1+x+x^2 mod 5"],
)
def test_verify_counts_against_brute_force_odd_primes(f, depth):
    # 3^8 and 5^5 rows expanded and tallied digit by digit
    assert verify_counts(build_transfer(f), depth) is None


def test_verify_counts_refuses_deep_checks_before_expanding_rows():
    assert MAX_VERIFY_ROWS == 2**14
    with pytest.raises(ValueError, match="MAX_VERIFY_ROWS"):
        verify_counts(build_transfer(P1X), 15)
    with pytest.raises(ValueError, match="MAX_VERIFY_ROWS"):
        spectrum(FpPoly.make(5, [1, 1]), 7)
    with pytest.raises(ValueError, match="MAX_VERIFY_ROWS"):
        survey(2, depth=10**12)


def test_verify_counts_refuses_large_vector_stacks_before_expanding_rows(monkeypatch, capsys):
    # 1+x+x^12 has 5660 states: 2^10 vectors fit, 2^14 would be 742 MB of int64
    big = build_transfer(parse_poly("1+x+x^12", 2))
    assert len(big.states) == 5660
    assert 2**10 * 5660 <= MAX_VERIFY_CELLS < 2**14 * 5660

    def no_rows(*args):
        raise AssertionError("rows expanded before the refusal")

    monkeypatch.setattr(willson, "iter_rows", no_rows)
    with pytest.raises(ValueError, match="MAX_VERIFY_CELLS"):
        verify_counts(big, 14)
    t0 = time.perf_counter()
    code = main(["willson", "--poly", "1+x+x^12", "--depth", "14"])
    elapsed = time.perf_counter() - t0
    assert code == 2 and "MAX_VERIFY_CELLS" in capsys.readouterr().err
    assert elapsed < 1.0


def test_verify_counts_row_vectors_match_per_row_tallies():
    # the per-row vectors, summed over u, against digit tallies of poly_pow rows
    sys = build_transfer(P1XX3)
    B = [dense_b(sys, [r]) for r in range(2)]
    vecs = {0: list(sys.v)}
    for m in range(1, 64):
        vecs[m] = mat_vec(B[m % 2], vecs[m // 2])
        want = sum(1 for c in poly_pow(P1XX3, m).coeffs if c)
        assert sum(x for x, keep in zip(vecs[m], sys.u) if keep) == want
    assert verify_counts(sys, 6) is None


def test_verify_counts_detects_tampering():
    sys = build_transfer(P1X)
    bad = replace(sys, v=2 * sys.v)
    with pytest.raises(SpectralMismatchError, match="for 1\\+x: cumulative 0 is 2, want 1$"):
        verify_counts(bad, 3)


def test_verify_counts_detects_swapped_parities():
    # B0 + B1 and so every cumulative count is unchanged; only rows see it
    sys = build_transfer(P1XX2)
    swapped = replace(sys, maps=sys.maps[::-1])
    with pytest.raises(SpectralMismatchError, match=": row 1 is 1, want 3$"):
        verify_counts(swapped, 4)


def test_verify_counts_detects_swapped_residues_mod3():
    # rows 1 and 2 of 1+x+x^2 mod 3 have 3 and 4 nonzero digits
    sys = build_transfer(P3_QUAD)
    with pytest.raises(SpectralMismatchError, match=": row 1 is 4, want 3$"):
        verify_counts(replace(sys, maps=sys.maps[[0, 2, 1]]), 3)


def test_tampered_transfer_exits_3_naming_the_polynomial(monkeypatch, capsys):
    # spectrum checks the counts before perron, so willson --depth refuses
    # the doubled v with the identity that failed
    build = willson.build_transfer

    def doubled(f):
        system = build(f)
        return replace(system, v=2 * system.v)

    monkeypatch.setattr(willson, "build_transfer", doubled)
    assert main(["willson", "--poly", "1+x", "--depth", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "diagnostic: count identity failed for 1+x: cumulative 0 is 2, want 1\n"


# --------------------------------------------------------------- spectra ----


def test_perron_1px_is_exactly_three():
    res = perron(build_transfer(P1X))
    assert res.lam == 3.0
    assert res.interval == (Fraction(3), Fraction(3))
    assert res.recurrence == (-3, 1)
    # eigenvalues 3 and 1 on {01, 11}, 2 on the sink 10
    assert sympy_charpoly(dense_b(build_transfer(P1X))) == [-6, 11, -6, 1]
    assert res.minpoly == (-3, 1)
    assert res.degree == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_perron_1px_mod_p_is_fines_count(p):
    # Fine (1947): rows 0..p^k-1 of (1+x)^k mod p hold (p(p+1)/2)^k nonzero digits
    res = perron(build_transfer(FpPoly.make(p, [1, 1])))
    lam = p * (p + 1) // 2
    assert res.recurrence == res.minpoly == (-lam, 1)
    assert res.degree == 1
    assert res.interval == (Fraction(lam), Fraction(lam))
    assert res.lam == lam
    assert res.dimension == math.log2(lam) / math.log2(p)


def test_perron_1xx2_golden_quadratic():
    res = perron(build_transfer(P1XX2))
    assert abs(res.lam - (1 + math.sqrt(5))) < 1e-9
    assert res.minpoly == (-4, -2, 1)
    assert res.degree == 2
    # the quadratic is the count recurrence and divides the characteristic
    # polynomial of the matrix
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
    # the bracket holds a root of the minimal polynomial: the eigenvalue itself
    assert sympy_poly(m).count_roots(sympy.Rational(lo), sympy.Rational(hi)) >= 1


@pytest.mark.parametrize(
    "f", enumerate_classes(6), ids=lambda f: f"{f.coeffs}"
)
def test_recurrence_against_sympy_charpoly(f):
    sys = build_transfer(f)
    res = perron(sys)
    rec = list(res.recurrence)
    b = dense_b(sys)
    # the count sequence, independently, from the dense matrix
    seq, w = [], sys.v.tolist()
    for _ in range(3 * len(b) + 3):
        seq.append(sum(a * x for a, x in zip(sys.u.tolist(), w)))
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
    # the bracket holds the largest real eigenvalue of the matrix, found by
    # sympy and as numpy's dominant eigenvalue, and that eigenvalue is the
    # largest real root of the irreducible minpoly
    top = max(sympy_poly(cp).real_roots())
    lo, hi = res.interval
    assert sympy.Rational(lo) <= top <= sympy.Rational(hi)
    assert hi - lo <= Fraction(1, 10**9)
    eig = np.linalg.eigvals(np.array(b, dtype=float))
    dominant = eig[np.argmax(abs(eig))]
    assert abs(dominant.imag) < 1e-9
    assert float(lo) - 1e-9 <= dominant.real <= float(hi) + 1e-9
    minpoly = sympy_poly(res.minpoly)
    assert minpoly.is_irreducible
    assert max(minpoly.real_roots()) == top


def test_minpoly_is_the_factor_the_bracket_holds():
    # (x^2 - 5)(x^3 - 2): the largest root, sqrt(5), is in the shorter factor;
    # a bracket of width 2^-40 around it excludes the cubic, a wide one not
    rec = [10, 0, -2, -5, 0, 1]
    lo = Fraction(int(sympy.floor(sympy.sqrt(5) * 2**40)), 2**40)
    hi = lo + Fraction(1, 2**40)
    held = [g for g in factor_int_poly(rec) if may_vanish(g, lo, hi)]
    assert held == [[-5, 0, 1]]
    assert len([g for g in factor_int_poly(rec) if may_vanish(g, Fraction(1), Fraction(3))]) == 2


def loop_system(loops, u):
    """States with loops[s] self-loops each and no other edge, all in v."""
    n = len(loops)
    maps = np.full((2, 2, n), -1, dtype=np.int64)
    for s, count in enumerate(loops):
        maps.reshape(4, n)[:count, s] = s
    return TransferSystem(
        f=P1X, states=np.zeros((n, 2), dtype=np.uint8), maps=maps,
        u=np.array(u), v=np.ones(n, dtype=np.int64))


def refused(monkeypatch, capsys, system):
    """The message perron raises for system, and the willson command's exit code."""
    with pytest.raises(ArithmeticError) as exc:
        perron(system)
    monkeypatch.setattr(willson, "build_transfer", lambda f: system)
    code = main(["willson", "--poly", "1+x"])
    out, err = capsys.readouterr()
    assert out == "" and err == f"diagnostic: {exc.value}\n"
    return str(exc.value), code


def test_doubling_cap_exits_3(monkeypatch, capsys):
    # counts 3^k + 2^k: each state keeps its own rate, so every bracket is
    # [2, 3] and holds both factors of (x - 3)(x - 2)
    system = loop_system([3, 2], [True, True])
    assert count_sequence(system, 4) == [2, 5, 13, 35]
    msg, code = refused(monkeypatch, capsys, system)
    assert code == 3
    assert msg == f"no certified bracket for 1+x after {4 << willson._MAX_DOUBLINGS} steps"


def test_state_reaching_no_u_exits_3(monkeypatch, capsys):
    # the uncounted state has rho = 4 while the counts grow like 3^k
    system = loop_system([3, 4], [True, False])
    assert count_sequence(system, 4) == [1, 3, 9, 27]
    msg, code = refused(monkeypatch, capsys, system)
    assert code == 3
    assert msg == "1 states of 1+x reach no window with a nonzero first digit"


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


def mask_exponents(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_divmod(a, b):
    q, db = 0, b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def mask_mul(a, b):
    out = 0
    for e in mask_exponents(b):
        out ^= a << e
    return out


def mask_factor(mask):
    """Irreducible factors of a nonzero F2 polynomial, by trial division."""
    factors, cand = {}, 2
    while cand.bit_length() <= (mask.bit_length() + 1) // 2:
        q, r = mask_divmod(mask, cand)
        while r == 0 and mask.bit_length() > 1:
            factors[cand] = factors.get(cand, 0) + 1
            mask = q
            q, r = mask_divmod(mask, cand)
        cand += 1
    if mask.bit_length() > 1:
        factors[mask] = factors.get(mask, 0) + 1
    return factors


def mask_root(mask):
    factors = mask_factor(mask)
    g = math.gcd(*factors.values())
    if g <= 1:
        return mask
    out = 1
    for f, mult in factors.items():
        for _ in range(mult // g):
            out = mask_mul(out, f)
    return out


def mask_desubstitute(mask):
    g = math.gcd(*mask_exponents(mask))
    if g <= 1:
        return mask
    return sum(1 << (e // g) for e in mask_exponents(mask))


def mask_reverse(mask):
    top = mask.bit_length() - 1
    return sum(1 << (top - e) for e in mask_exponents(mask))


def mask_strip(mask):
    return mask >> mask_exponents(mask)[0]


def bitmask_canonical(f):
    """canonicalize on bitmasks: breadth-first over the moves, then the least
    exponent tuple among the masks strip, root and desubstitute leave alone."""
    shrink = (mask_strip, mask_root, mask_desubstitute)
    start = sum(1 << e for e, c in enumerate(f.coeffs) if c)
    seen, queue = {start}, [start]
    while queue:
        mask = queue.pop(0)
        for move in (*shrink, mask_reverse):
            nxt = move(mask)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    best = min((m for m in seen if all(move(m) == m for move in shrink)), key=mask_exponents)
    return FpPoly.make(2, [best >> i & 1 for i in range(best.bit_length())])


def all_f2_polys(max_deg):
    return [FpPoly.make(2, [m >> i & 1 for i in range(m.bit_length())])
            for m in range(1, 2 << max_deg)]


def test_canonicalize_equals_bitmask_oracle():
    for f in all_f2_polys(10):
        assert canonicalize(f) == bitmask_canonical(f), f


def test_canonicalize_equals_the_search_over_every_move():
    for f in all_f2_polys(10):
        assert canonicalize(f) == canonical_by_search(f), f


def test_enumerate_classes_lists_every_canonical_form():
    forms = {canonical_by_search(f) for f in all_f2_polys(10)}
    for max_deg in range(1, 11):
        want = sorted((g for g in forms if 1 <= g.degree <= max_deg),
                      key=lambda g: (g.degree, [e for e, c in enumerate(g.coeffs) if c]))
        assert enumerate_classes(max_deg) == want, max_deg


def test_canonicalize_reduction_moves():
    assert canonicalize(FpPoly.make(2, [0, 1, 1])) == P1X  # strip x
    assert canonicalize(FpPoly.make(2, [1, 0, 1])) == P1X  # square root
    assert canonicalize(FpPoly.make(2, [1, 0, 1, 1])) == P1XX3  # reversal is smaller
    assert canonicalize(P1XX3) == P1XX3  # already reduced
    # substitution x -> x^2 undone
    assert canonicalize(FpPoly.make(2, [1, 0, 1, 0, 0, 0, 1])) == P1XX3


def test_canonicalize_identifies_squares_of_shifts():
    # x^2 + x^3 = x^2 (1 + x): strip then nothing else to do
    assert canonicalize(FpPoly.make(2, [0, 0, 1, 1])) == P1X
    # (1+x)^3 is a power of 1+x
    assert canonicalize(poly_pow(P1X, 3)) == P1X


def test_canonicalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        canonicalize(FpPoly.make(3, [1, 1]))
    with pytest.raises(ValueError):
        canonicalize(FpPoly.make(2, [0]))


def test_enumerate_classes_small_degrees():
    assert enumerate_classes(1) == [P1X]
    with pytest.raises(ValueError, match="max_deg"):
        enumerate_classes(0)
    got2 = set(enumerate_classes(2))
    assert got2 == {P1X, P1XX2}
    assert len(enumerate_classes(3)) == 3
    assert len(enumerate_classes(4)) == 7


def test_enumerate_classes_members_are_fixed_points():
    for f in enumerate_classes(4):
        assert f.coeffs[0] == 1
        assert canonicalize(f) == f


# ----------------------------------------------------------------- bound ----


def test_eigen_bound_values():
    assert eigen_bound(1) == 3.0
    assert abs(eigen_bound(2) - math.sqrt(14)) < 1e-12
    bounds = [eigen_bound(d) for d in range(1, 10)]
    assert bounds == sorted(bounds)
    assert all(b < 4.0 for b in bounds)
    with pytest.raises(ValueError):
        eigen_bound(0)


def test_exact_bound_check_agrees_with_the_float_one_up_to_degree_6():
    # bound_ok compares the top of the certified bracket with the bound in
    # rationals; on every class of degree <= 6 it reads as the float test did
    for row in survey(6, depth=0).rows:
        assert row.bound_ok == (row.result.lam <= eigen_bound(row.poly.degree) + 1e-9)


def test_exact_bound_check_reads_the_top_of_the_bracket():
    # lam stays far below the bound, but the bracket's top is over it
    bound = Fraction(eigen_bound(3))
    res = perron(build_transfer(P1XX3))
    over = replace(res, interval=(bound - Fraction(1, 2**40), bound + Fraction(1, 2**40)))
    assert willson.survey_row(P1XX3, res).bound_ok
    assert not willson.survey_row(P1XX3, over).bound_ok


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


def test_survey_pairs_collisions_by_minpoly(monkeypatch):
    # a class and its reversal share lambda exactly, so their minpolys agree
    pair = [P1XX3, P1XX3.reverse()]
    monkeypatch.setattr(willson, "enumerate_classes", lambda max_deg: pair)
    result = survey(3, depth=0)
    assert result.rows[0].result.minpoly == result.rows[1].result.minpoly
    assert result.collisions == (("1+x+x^3", "1+x^2+x^3"),)
