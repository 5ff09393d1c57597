"""Oracles kept out of the package: for the series tests, the hand-made closed
form of 1+x+x^2 mod 2 and the residual of the self-similarity equation on a
series prefix, which share nothing with the derivation in polypow.genfun; for
the similarity classes, the search over every move that canonicalize replaced.
"""

from dataclasses import dataclass

from polypow.willson import _desubstitute, _exponents, _root, _strip


def series_1xx2(n_terms: int) -> list[int]:
    """First n_terms+1 line-complexity values of 1+x+x^2 mod 2.

    Numerator: 1 + 2z^3 + 2z^5 - z^6 + z^3 * sum_i (z^(2^i) - z^(3*2^i)),
    over (1-z^2)(1-z)^2.  The z^3 prefactor on the sum is required to
    reproduce the sequence (cross-checked against the inferred recursion);
    without it the expansion already fails at the second coefficient.
    """
    if n_terms < 0:
        raise ValueError("series length must be >= 0")
    num = [0] * (n_terms + 1)
    for e, c in ((0, 1), (3, 2), (5, 2), (6, -1)):
        if e <= n_terms:
            num[e] += c
    for mult, w in ((1, 1), (3, -1)):
        q = 1
        while 3 + mult * q <= n_terms:
            num[3 + mult * q] += w
            q *= 2
    for stride in (1, 1, 2):  # division by 1 - z^stride
        for n in range(stride, len(num)):
            num[n] += num[n - stride]
    return num


class InconclusiveError(RuntimeError):
    """Raised when a series prefix is too short to certify any residual bound."""


@dataclass(frozen=True)
class ResidualReport:
    """Residual polynomial prefix of r(z)g(z) - r(z^p)g(z^p) and its certification.

    residual holds coefficients up to the last nonzero one; degree_bound is
    that degree when it is small enough to certify (at most the top of the
    prefix's self-similar half), else None.
    """

    residual: tuple[int, ...]
    degree_bound: int | None
    checked_to: int


def functional_residual(series: list[int], r_poly: list[int], p: int) -> ResidualReport:
    """Exact residual of the base-p self-similarity equation on a series prefix.

    A degree bound D is certified only when every computed coefficient above D
    vanishes and D <= N//p, i.e. the vanishing has been observed across a full
    p-fold window.  A prefix shorter than p*(deg r + 1) cannot certify
    anything and raises InconclusiveError.
    """
    if not r_poly or r_poly[-1] == 0:
        raise ValueError("r(z) must have a nonzero leading coefficient")
    n = len(series) - 1
    if n < p * len(r_poly):
        raise InconclusiveError(
            f"series prefix of degree {n} cannot certify a residual for deg r = {len(r_poly) - 1}")
    rs = [0] * (n + 1)
    for i, ri in enumerate(r_poly):
        if ri:
            for j in range(0, n + 1 - i):
                rs[i + j] += ri * series[j]
    b = list(rs)
    for m in range(0, n // p + 1):
        b[p * m] -= rs[m]
    last = max((i for i, v in enumerate(b) if v), default=None)
    if last is None:
        return ResidualReport((0,), 0, n)
    bound = last if last <= n // p else None
    return ResidualReport(tuple(b[:last + 1]), bound, n)


def canonical_by_search(f):
    """The canonical form of f mod 2 by searching the closure of f under strip,
    root, desubstitute and reversal: among the polynomials in it that no move
    but reversal changes, the one whose sorted exponent tuple is smallest."""
    seen, todo, reduced = {f}, [f], []
    while todo:
        g = todo.pop()
        shrunk = {_strip(g), _root(g), _desubstitute(g)}
        if shrunk == {g}:
            reduced.append(g)
        for h in shrunk | {g.reverse()}:
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return min(reduced, key=_exponents)
