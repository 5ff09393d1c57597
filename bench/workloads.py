"""Workload definitions, their oracles, and the loop that runs one pass.

A workload is a fixed list of exact computations that one researcher runs one
after another, each waiting for the previous answer.  Every operation carries
the answer an independent oracle expects; a wrong answer, an exception, a
nonzero CLI exit or a minpoly left PENDING counts as a failed operation.  The
seed only permutes the order of the operations, never the amount of work, and
no two operations of one pass share a polynomial's cached closure.

The oracles are the benchmark's own copies of pinned values and of the closed
1+x recursion, so a change to the library cannot move its own yardstick.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from polypow import blocks, cli
from polypow.fpoly import FpPoly

LAMBDA_TOL = 5e-6

# Dominant eigenvalue (six digits) and minimal-polynomial degree of every
# reversal class of degree <= 6 at p = 2.  The degree of 1+x+x^2+x^3+x^6 is
# the corrected value 20; the published 19 is arithmetically impossible.
SPECTRA = {
    "1+x": (3.0, 1),
    "1+x+x^2": (3.23607, 2),
    "1+x+x^3": (3.31142, 4),
    "1+x+x^4": (3.33159, 5),
    "1+x+x^2+x^4": (3.3788, 7),
    "1+x+x^3+x^4": (3.47662, 4),
    "1+x+x^2+x^3+x^4": (3.45729, 4),
    "1+x+x^5": (3.35174, 10),
    "1+x^2+x^5": (3.46127, 12),
    "1+x+x^2+x^5": (3.49563, 7),
    "1+x+x^3+x^5": (3.45469, 12),
    "1+x^2+x^3+x^5": (3.46639, 5),
    "1+x+x^2+x^3+x^5": (3.5229, 14),
    "1+x+x^2+x^4+x^5": (3.47168, 11),
    "1+x+x^2+x^3+x^4+x^5": (3.52951, 6),
    "1+x+x^6": (3.45686, 20),
    "1+x+x^2+x^6": (3.49009, 20),
    "1+x+x^3+x^6": (3.50478, 10),
    "1+x^2+x^3+x^6": (3.53521, 20),
    "1+x+x^2+x^3+x^6": (3.53141, 20),
    "1+x+x^4+x^6": (3.50468, 17),
    "1+x+x^2+x^4+x^6": (3.55002, 19),
    "1+x+x^3+x^4+x^6": (3.59415, 16),
    "1+x^2+x^3+x^4+x^6": (3.53665, 15),
    "1+x+x^2+x^3+x^4+x^6": (3.59043, 11),
    "1+x+x^5+x^6": (3.54536, 14),
    "1+x+x^2+x^5+x^6": (3.50809, 18),
    "1+x+x^2+x^3+x^5+x^6": (3.57066, 17),
    "1+x+x^2+x^4+x^5+x^6": (3.49995, 6),
    "1+x+x^2+x^3+x^4+x^5+x^6": (3.5598, 6),
}

# a(1..10) of c+x+x^2 mod p, and the base-p recursion rows and constant of
# a(pn+k) = sum_j rows[k][j] a(n+j) - constant for every (p, c).
QUADRATIC_COUNTS = {
    (2, 1): (2, 4, 8, 14, 25, 36, 53, 70, 92, 114),
    (5, 1): (5, 25, 121, 393, 673, 929, 1257, 1761, 2341, 3097),
}
_ROWS_5 = ((9, 12, 4), (6, 13, 6), (4, 12, 9), (2, 12, 10, 1), (1, 10, 12, 2))
RECURSIONS = {
    (2, 1): (((2, 2), (1, 2, 1)), 8),
    (3, 1): (((6, 3), (3, 6), (1, 7, 1)), 20),
    (3, 2): (((4, 4, 1), (2, 5, 2), (1, 4, 4)), 32),
    (5, 1): (_ROWS_5, 152),
    (5, 2): (_ROWS_5, 152),
    (5, 3): (_ROWS_5, 152),
    (5, 4): (((15, 10), (10, 15), (6, 18, 1), (3, 19, 3), (1, 18, 6)), 72),
}
# Both rules with pinned counts hold from this index on.
RULE_FROM = 6


@dataclass(frozen=True)
class Op:
    """One timed computation: `run` produces an output, `check` compares it
    with `expected` and returns a failure message, or None when it is right."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, object], str | None]
    expected: object


# ------------------------------------------------------------- oracles ----

def one_plus_x_counts(p: int, n_max: int) -> list[int]:
    """a(0..n_max) of 1+x mod p from its closed base-p recursion."""
    const = (2 * p - 1) * (2 * p - 2)
    a = [1, p, p * p]
    for m in range(3, n_max + 1):
        q, k = divmod(m, p)
        coeffs = ((p - k) * (p - k + 1) // 2, k * p + k - k * k + (p * p - p) // 2, (k * k - k) // 2)
        a.append(sum(c * a[q + j] for j, c in enumerate(coeffs) if c) - const)
    return a[:n_max + 1]


def recursion_counts(p: int, c: int, n_max: int) -> list[int]:
    """a(0..n_max) of c+x+x^2 mod p: pinned values, then the pinned recursion.

    Pinned values from RULE_FROM on must satisfy the recursion too.
    """
    rows, const = RECURSIONS[(p, c)]
    pinned = (1,) + QUADRATIC_COUNTS[(p, c)]
    a: list[int] = []
    for m in range(n_max + 1):
        q, k = divmod(m, p)
        if m >= RULE_FROM:
            rule = sum(r * a[q + j] for j, r in enumerate(rows[k])) - const
            if m < len(pinned) and rule != pinned[m]:
                raise AssertionError(f"pinned a({m}) contradicts the recursion")
        a.append(pinned[m] if m < len(pinned) else rule)
    return a


def _exponents(text: str) -> list[int]:
    return [0 if t == "1" else 1 if t == "x" else int(t[2:]) for t in text.split("+")]


def _reversed_poly(text: str) -> str:
    exps = _exponents(text)
    terms = sorted(max(exps) - e for e in exps)
    return "+".join("1" if e == 0 else "x" if e == 1 else f"x^{e}" for e in terms)


# -------------------------------------------------------------- checks ----

def _cli_check(compare):
    def check(output, expected):
        code, out, err = output
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        return compare(out, expected)
    return check


def _first_mismatch(got: list[int], want: list[int]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} values, want {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"a({n}) = {g}, want {w}"
    return None


def _check_survey(out: str, expected: dict) -> str | None:
    rows = {row["poly"]: row for row in json.loads(out)["rows"]}
    if len(rows) != len(expected):
        return f"{len(rows)} classes, want {len(expected)}"
    for text, (lam, degree) in expected.items():
        row = rows.get(text) or rows.get(_reversed_poly(text))
        if row is None:
            return f"class {text} missing"
        if abs(row["lambda"] - lam) > LAMBDA_TOL:
            return f"{text}: lambda {row['lambda']}, want {lam}"
        if row["degree"] != str(degree):
            return f"{text}: minpoly degree {row['degree']}, want {degree}"
    return None


def _check_csv_counts(out: str, expected: list[int]) -> str | None:
    lines = out.split()
    if lines[0] != "n,a_n":
        return f"bad header {lines[0]!r}"
    return _first_mismatch([int(line.split(",")[1]) for line in lines[1:]], expected)


def _check_infer(out: str, expected) -> str | None:
    rows, const = expected
    got = json.loads(out)
    got_rows = tuple(tuple(int(c) for c in row) for row in got["rows"])
    if got_rows != rows or int(got["constant"]) != const:
        return f"rows {got_rows} constant {got['constant']}, want {rows} {const}"
    return None


def _check_pbm(out: str, expected) -> str | None:
    width, height, ones = expected
    magic, size, body = out.split("\n", 2)
    if (magic, size) != ("P1", f"{width} {height}"):
        return f"bad header {magic} {size}"
    got = body.split().count("1")
    return None if got == ones else f"{got} set bits, want {ones}"


def _check_equal(got, want) -> str | None:
    return None if got == want else f"got {got}, want {want}"


# ----------------------------------------------------------- workloads ----

def _cli_op(argv: list[str], compare, expected) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return Op(" ".join(argv), run, _cli_check(compare), expected)


def _scan_op(p: int, coeffs: tuple[int, ...], n: int, max_row: int, expected: int) -> Op:
    f = FpPoly.make(p, coeffs)
    return Op(f"scan {coeffs} mod {p} n={n} rows={max_row}",
              lambda: len(blocks.scan_accessible(f, n, max_row=max_row)),
              _check_equal, expected)


def _survey(tiny: bool) -> list[Op]:
    # survey --max-deg 6 (about 30 s) gives one noisy sample per run; degree
    # <= 5 still takes both charpoly routes (trimmed sizes 2 to 57) and factors.
    max_deg, depth = (2, 2) if tiny else (5, 10)
    expected = {t: v for t, v in SPECTRA.items() if max(_exponents(t)) <= max_deg}
    argv = ["survey", "--max-deg", str(max_deg), "--depth", str(depth), "--format", "json"]
    return [_cli_op(argv, _check_survey, expected)]


def _closure(tiny: bool) -> list[Op]:
    n3, n5 = (30, 20) if tiny else (150, 60)
    return [
        _cli_op(["blocks", "--poly", "1+x", "--prime", "3", "--n", str(n3), "--engine", "scan"],
                _check_csv_counts, one_plus_x_counts(3, n3)),
        _cli_op(["blocks", "--poly", "1+x+x^2", "--prime", "5", "--n", str(n5), "--engine", "scan"],
                _check_csv_counts, recursion_counts(5, 1, n5)),
    ]


def _scan_infer(tiny: bool) -> list[Op]:
    (n2, n22, n3), max_row = ((6, 6, 4), 256) if tiny else ((12, 16, 8), 4096)
    cases = [(2, 1), (3, 1)] if tiny else list(RECURSIONS)
    rows = 64 if tiny else 1024
    ops = [
        _scan_op(2, (1, 1), n2, max_row, n2 * n2 - n2 + 2),
        _scan_op(2, (1, 1, 1), n22, max_row, recursion_counts(2, 1, n22)[n22]),
        _scan_op(3, (1, 1), n3, max_row, one_plus_x_counts(3, n3)[n3]),
    ]
    for p, c in cases:
        ops.append(_cli_op(["infer", "--poly", f"{c}+x+x^2", "--prime", str(p), "--format", "json"],
                           _check_infer, RECURSIONS[(p, c)]))
    # the Sierpinski triangle: 3^k set bits in 2^k rows
    ops.append(_cli_op(["fractal", "--poly", "1+x", "--prime", "2", "--rows", str(rows)],
                       _check_pbm, (rows, rows, 3 ** (rows.bit_length() - 1))))
    return ops


# The spectral survey and the scans share one workload: on a shared host each
# run must be long enough to average out its neighbours' load, and two longer
# workloads fit the benchmark's time budget where three shorter ones were noisy.
WORKLOADS = {
    "survey_scan": lambda tiny: _survey(tiny) + _scan_infer(tiny),
    "closure": _closure,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of workload `name` in the order that `seed` picks."""
    ops = WORKLOADS[name](tiny)
    random.Random(seed).shuffle(ops)
    return ops


def run_pass(ops: list[Op], tracer=None) -> dict:
    """Run every operation once, timing it, then check it against its oracle.

    Only the operation itself is timed; the oracle check is not.
    """
    wall = cpu = 0.0
    op_s = {}
    failures = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output, problem = op.run(), None
        except Exception as exc:  # a raising operation is a failed operation
            output, problem = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            op_s[op.name] = time.perf_counter() - t0
            wall += op_s[op.name]
            cpu += time.process_time() - c0
        if problem is None:
            try:
                problem = op.check(output, op.expected)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            failures.append(f"{op.name}: {problem}")
    return {"wall_s": wall, "cpu_s": cpu, "op_s": op_s, "attempted": len(ops),
            "failed": len(failures), "failures": failures}
