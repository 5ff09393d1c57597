"""Linear representations of p-regular sequences, and one exact spectral route.

A linear representation in base p is p integer operators B_0, ..., B_(p-1)
with a left and a right vector (Allouche & Shallit, TCS 98, 1992); its value
at m is left.B_(m_0)...B_(m_(k-1)).right over the base-p digits of m, lowest
first.  willson's count matrices and asympt's M_0 are both read through it.

The minimal polynomial mu of x under B = B_0 + ... + B_(p-1) is certified
over Python ints: minimal_recurrence on a seeded random integer projection
of the walk B^k.x (order at most the dimension, by Cayley-Hamilton) gives a
divisor of mu, which the exact check sum c_i B^i.x = 0 proves to be mu; a
failed check draws another projection, so the answer never depends on the
draw (Wiedemann, IEEE Trans. IT 32, 1986).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Callable

import numpy as np

from ._zzpoly import minimal_recurrence


def _inside_unit_circle(f: list[int]) -> bool:
    """Schur-Cohn: every root of f (descending coefficients) has modulus < 1."""
    while len(f) > 1:
        if abs(f[-1]) >= abs(f[0]):
            return False
        f = [f[0] * x - f[-1] * y for x, y in zip(f, f[::-1])][:-1]
    return True


@dataclass(frozen=True, eq=False)
class LinearRepresentation:
    """Base p, apply(w, r) = B_r.w and apply(w) = B.w, left and right.

    apply acts on the last axis of w, so w may be a stack of vectors.
    """

    p: int
    apply: Callable[..., np.ndarray]
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def dense(cls, matrices, left, right) -> LinearRepresentation:
        """B_r = matrices[r], over Python ints.  One matrix M is the base-1
        representation of k -> left.M^k.right, whose B is M."""
        ms = [np.array(m, dtype=object) for m in matrices]
        total = sum(ms)
        return cls(len(ms), lambda w, r=None: w @ (total if r is None else ms[r]).T,
                   np.array(left, dtype=object), np.array(right, dtype=object))

    def values(self, depth: int) -> np.ndarray:
        """The value at every m < p^depth, in order, in right's dtype.

        The vector of pm+r is B_r times that of m, so the vectors of m in
        p^l..p^(l+1)-1 come from those of p^(l-1)..p^l-1 in one batch (1..p-1
        from 0, whose vector is right); only the last batch is held.
        """
        block, n = self.right[np.newaxis], len(self.right)
        out = [block @ self.left]
        for level in range(depth):
            children = np.stack([self.apply(block, r) for r in range(self.p)], axis=1)
            block = children.reshape(-1, n)[int(level == 0):]
            out.append(block @ self.left)
        return np.concatenate(out)

    def krylov(self, x: np.ndarray):
        """The exact vectors B^k.x for k = 0, 1, 2, ...; x may be a stack."""
        w = np.array(x, dtype=object)
        while True:
            yield w
            w = self.apply(w)

    def minimal_polynomial(self, x: np.ndarray | None = None) -> list[int]:
        """mu (monic, ascending): the least polynomial with mu(B).x = 0.

        x is a vector or a stack of them; None stands for every basis
        vector, which gives the minimal polynomial of B itself.
        """
        n = len(self.right)
        walk = list(islice(self.krylov(np.identity(n, dtype=object) if x is None else x), 2 * n))
        rng = Random(0)
        while True:
            proj = np.array([rng.randrange(1 << 32) for _ in range(walk[0].size)], dtype=object)
            mu = minimal_recurrence([int(proj @ w.ravel()) for w in walk], n)
            if not any(sum(c * w for c, w in zip(mu, walk)).ravel()):
                return mu

    def dominant_component(self, lam: int) -> tuple[list[int], int] | None:
        """(row, D): row/D = left.P, for P the projection onto B's
        lam-eigenspace along its other generalized eigenspaces.

        None unless lam > 0 is a simple root of det(tI - B) and every other
        root is smaller in modulus, decided on mu, B's own minimal polynomial:
        lam a simple root of mu, Schur-Cohn on q(lam t) for q = mu/(t - lam),
        and B - lam I of nullity 1.  P = q(B)/q(lam), and the image of q(B)
        is the kernel of B - lam I, so its nullity is the rank of q(B).
        """
        mu, n = self.minimal_polynomial(), len(self.left)
        q = [1]  # q = mu / (t - lam), descending, then the remainder mu(lam)
        for c in mu[-2::-1]:
            q.append(q[-1] * lam + c)
        q, rem = q[:-1], q[-1]
        denom = sum(c * lam**i for i, c in enumerate(reversed(q)))
        if rem or not denom or not _inside_unit_circle(
                [c * lam ** (len(q) - 1 - i) for i, c in enumerate(q)]):
            return None
        # row j of qb is q(B).e_j; it is nonzero, since deg q < deg mu
        walk = islice(self.krylov(np.identity(n, dtype=object)), len(q))
        qb = sum(c * w for c, w in zip(reversed(q), walk))
        i, j = next(zip(*np.nonzero(qb)))
        if (qb * qb[i, j] != np.outer(qb[:, j], qb[i])).any():  # rank above 1
            return None
        return (qb @ self.left).tolist(), denom
