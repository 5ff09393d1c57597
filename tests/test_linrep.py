"""The linear-representation type against dense Python-int matrices: its
values, its Krylov walk, the certified minimal polynomial of a vector and of
the operator, and the dominant component's refusals."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypow import linrep
from polypow.linrep import LinearRepresentation

from oracles import dense_krylov, dense_values, matrix_powers, minimal_polynomial_by_nullspace

# p^depth values for every p: 32, 27 and 25
DEPTH = {2: 5, 3: 3, 5: 2}


@st.composite
def representations(draw):
    p, n = draw(st.sampled_from(sorted(DEPTH))), draw(st.integers(1, 6))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    matrices = draw(st.lists(st.lists(vector, min_size=n, max_size=n), min_size=p, max_size=p))
    return matrices, draw(vector), draw(vector)


@given(representations())
@settings(max_examples=200, deadline=None)
def test_representation_against_the_dense_oracle(spec):
    matrices, left, right = spec
    rep = LinearRepresentation.dense(matrices, left, right)
    p, n = len(matrices), len(left)
    assert rep.values(DEPTH[p]).tolist() == dense_values(matrices, left, right, DEPTH[p])
    b = np.sum(matrices, axis=0).tolist()
    walk = dense_krylov(b, right, 2 * n + 2)
    assert [w.tolist() for w in islice(rep.krylov(right), 2 * n + 2)] == walk
    assert rep.minimal_polynomial(right) == minimal_polynomial_by_nullspace(walk)
    assert rep.minimal_polynomial() == minimal_polynomial_by_nullspace(matrix_powers(b, n + 1))


def test_a_failed_check_draws_another_projection(monkeypatch):
    # the first projection (1, 0) sees only the root 1 of (t - 1)(t - 2), so
    # its recurrence t - 1 fails the exact check and (5, 7) is drawn next
    draws = iter([1, 0, 5, 7])

    class Draws:
        def __init__(self, seed):
            pass

        def randrange(self, stop):
            return next(draws)

    monkeypatch.setattr(linrep, "Random", Draws)
    rep = LinearRepresentation.dense([[[1, 0], [0, 2]]], [1, 1], [1, 1])
    assert rep.minimal_polynomial(np.array([1, 1])) == [2, -3, 1]
    assert next(draws, None) is None


def diag(*entries):
    return [[c if i == j else 0 for j, c in enumerate(entries)] for i in range(len(entries))]


@pytest.mark.parametrize("b,want", [
    (diag(4, 2, 1), ([6, 0, 0], 6)),
    # the left 4-eigenvector of B through e_0 is (1, 1/2, 0)
    ([[4, 1, 0], [0, 2, 0], [0, 0, 1]], ([6, 3, 0], 6)),
    # 4 is simple in mu = (t - 4)(t - 1) but double in det(tI - B)
    (diag(4, 4, 1), None),
    # e_0 B = 4 e_0, yet mu of B has the root -4 of modulus 4
    (diag(4, -4, 1), None),
    (diag(4, 5), None),
    ([[4, 1], [0, 4]], None),  # a double root of mu
    (diag(2, 1), None),  # 4 is no root
])
def test_dominant_component(b, want):
    e0 = [1] + [0] * (len(b) - 1)
    assert LinearRepresentation.dense([b], e0, e0).dominant_component(4) == want
