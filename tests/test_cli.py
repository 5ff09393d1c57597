"""End-to-end command tests: output formats, file writing, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import polypow
from polypow import (
    FpPoly,
    RecursionSpec,
    a_from_recursion_range,
    empirical_ratio,
    extrema,
    infer_recursion,
    line_complexity_range,
    parse_poly,
    recursion_1px,
    render_fractal,
    series_1px,
    to_pbm,
)
from polypow import _zzpoly, blocks, cli
from polypow.cli import main
from polypow.fpoly import BitmapSizeError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- fractal --


def test_render_fractal_small_triangle():
    bm = render_fractal(FpPoly.make(2, [1, 1]), 4)
    assert (bm.width, bm.height) == (4, 4)
    assert to_pbm(bm) == "P1\n4 4\n1 0 0 0\n1 1 0 0\n1 0 1 0\n1 1 1 1\n"


def test_render_fractal_counts_follow_powers_of_three():
    bm = render_fractal(FpPoly.make(2, [1, 1]), 64)
    assert sum(b for row in bm.bits for b in row) == 3**6


def test_render_fractal_size_guard():
    with pytest.raises(BitmapSizeError):
        render_fractal(FpPoly.make(2, [1, 1]), 1 << 13)
    with pytest.raises(ValueError):
        render_fractal(FpPoly.make(2, [1, 1]), 0)


def test_cli_fractal_stdout(capsys):
    code, out, _ = run(capsys, "fractal", "--poly", "1+x", "--rows", "4")
    assert code == 0
    assert out == "P1\n4 4\n1 0 0 0\n1 1 0 0\n1 0 1 0\n1 1 1 1\n"


# ------------------------------------------------------------------ blocks --


def test_cli_blocks_csv_matches_library(capsys):
    code, out, _ = run(capsys, "blocks", "--poly", "1+x+x^2", "--prime", "2", "--n", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,a_n"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == line_complexity_range(FpPoly.make(2, [1, 1, 1]), 8)


def test_cli_blocks_engines_agree(capsys):
    runs = {}
    for engine in ("scan", "recursion", "auto"):
        code, out, _ = run(
            capsys, "blocks", "--poly", "1+x", "--prime", "3", "--n", "10",
            "--engine", engine,
        )
        assert code == 0
        runs[engine] = out
    assert runs["scan"] == runs["recursion"] == runs["auto"]


def test_cli_blocks_json_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "blocks", "--poly", "1+x", "--n", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == "1+x"
    assert doc["prime"] == "2"
    assert doc["a"] == [str(n * n - n + 2) if n else "1" for n in range(7)]


def test_cli_blocks_recursion_for_a_large_prime(capsys):
    # the closed 1+x recursion needs no closure, so p > 255 is fine here
    code, out, _ = run(capsys, "blocks", "--poly", "1+x", "--prime", "100003", "--n", "10")
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.split()[1:]] == series_1px(100003, 10)


# ------------------------------------------------------------------ series --


def test_cli_series_matches_closed_form(capsys):
    code, out, _ = run(
        capsys, "series", "--poly", "1+x", "--prime", "5", "--terms", "40",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [int(v) for v in doc["a"]] == series_1px(5, 40)


def test_cli_series_1px_past_the_recursion_cap(capsys):
    # the closed form of 1+x builds no recursion rows, so it runs at any prime
    code, out, _ = run(capsys, "series", "--poly", "1+x", "--prime", "1000000007", "--terms", "3")
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.split()[1:]] == series_1px(1000000007, 3)


@pytest.mark.parametrize("poly,p,n", [("1+x+x^3", 2, 200), ("1+x+x^2", 3, 100)])
def test_cli_series_derives_the_series_of_an_inferred_recursion(capsys, poly, p, n):
    code, out, _ = run(capsys, "series", "--poly", poly, "--prime", str(p), "--terms", str(n))
    assert code == 0
    assert [int(line.split(",")[1]) for line in out.split()[1:]] == line_complexity_range(
        parse_poly(poly, p), n)


def test_cli_series_refuses_a_recursion_without_r(capsys):
    # 1+x^2 mod 2 has a recursion but no r(z) with r(z^p) = C(z) r(z)
    code, out, err = run(capsys, "series", "--poly", "1+x^2")
    assert (code, out) == (3, "")
    assert err == ("diagnostic: 1+x^2 mod 2: no Laurent polynomial r(z) solves "
                   "r(z^p) = C(z) r(z)\n")
    # a(n) = n + 1 for f = 1, although G = 1/(1-z)^2: the fitted rows admit no r
    code, out, err = run(capsys, "series", "--poly", "1")
    assert (code, out) == (3, "")
    assert err == "diagnostic: 1 mod 2: no Laurent polynomial r(z) solves r(z^p) = C(z) r(z)\n"
    # 1+x+x^4 mod 2 has no recursion within the template
    code, out, err = run(capsys, "series", "--poly", "1+x+x^4")
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: ") and "1+x+x^4 mod 2" in err


def test_cli_answers_for_1xx2_mod2(capsys):
    code, out, _ = run(capsys, "series", "--poly", "1+x+x^2", "--terms", "6")
    assert code == 0
    assert out.split()[1:] == [f"{n},{v}" for n, v in enumerate([1, 2, 4, 8, 14, 25, 36])]
    code, out, _ = run(capsys, "limits", "--poly", "1+x+x^2", "--format", "json")
    assert code == 0
    assert (json.loads(out)["inf"], json.loads(out)["sup"]) == ("39/28", "7/5")


def test_cli_blocks_auto_prints_only_proven_values(capsys):
    # auto runs the exact closure for every f but 1+x; past the closure cap
    # it refuses, while the inferred recursion still answers when asked for
    argv = ("blocks", "--poly", "1+x+x^2", "--n", "600")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: the candidate 600-blocks would hold ")
    code, out, _ = run(capsys, *argv, "--engine", "recursion")
    assert code == 0
    assert out == run(capsys, "series", "--poly", "1+x+x^2", "--terms", "600")[1]


# ------------------------------------------------------------------ limits --


def test_cli_limits_csv_pieces_are_exact(capsys):
    code, out, _ = run(
        capsys, "limits", "--poly", "1+x", "--prime", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lo,hi,a,b,c"
    rows = [line.split(",") for line in lines[1:]]
    assert Fraction(rows[0][0]) == Fraction(1, 5)
    assert Fraction(rows[-1][1]) == 1
    for left, right in zip(rows, rows[1:]):
        assert left[1] == right[0]  # contiguous cover


def test_cli_limits_json_extrema(capsys):
    code, out, _ = run(
        capsys, "limits", "--poly", "1+x", "--prime", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    ex = extrema(recursion_1px(3))
    assert Fraction(doc["inf"]) == ex.inf
    assert Fraction(doc["sup"]) == ex.sup
    assert Fraction(doc["arg_inf"]) == ex.arg_inf


def test_cli_limits_oscillation(capsys):
    code, out, _ = run(
        capsys, "limits", "--poly", "1+x", "--prime", "3",
        "--oscillation", "4", "--samples", "2",
    )
    assert code == 0
    assert out.startswith("logn,ratio\n")
    # n = floor(3^(k + j/2)) exactly: 3, 5, 9, 15, 27, 46, 81, 140
    assert out == (
        "logn,ratio\n1,2.77777777778\n1.46497352072,2.84\n2,3.1975308642\n"
        "2.46497352072,3.25777777778\n3,3.39231824417\n3.48497958377,3.43147448015\n"
        "4,3.46334400244\n4.49807677702,3.49525510204\n"
    )


def law_pieces(capsys, poly, p):
    code, out, err = run(capsys, "limits", "--poly", poly, "--prime", str(p))
    assert (code, err) == (0, "")
    return [
        {k: Fraction(v) for k, v in piece.items()} for piece in json.loads(out)["pieces"]
    ]


def law_value(pieces, x):
    piece = next(pc for pc in pieces if pc["lo"] <= x <= pc["hi"])
    return (piece["a"] * x + piece["b"]) * x + piece["c"]


@pytest.mark.parametrize(
    "poly,p",
    [("1+x+x^3", 2), ("3+x", 5), ("1+x^2", 3)] + [
        (f"{c}+x+x^2", p) for p, c in [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)]],
)
def test_cli_limits_derives_the_law_of_an_inferred_recursion(capsys, poly, p):
    pieces = law_pieces(capsys, poly, p)
    lo = Fraction(1, p)
    assert (pieces[0]["lo"], pieces[-1]["hi"]) == (lo, 1)
    for left, right in zip(pieces, pieces[1:]):
        assert left["hi"] == right["lo"]
    rec = infer_recursion(parse_poly(poly, p))
    for i in range(16):
        x = lo + (1 - lo) * Fraction(i, 15)
        assert abs(empirical_ratio(rec, x, 12) - float(law_value(pieces, x))) <= 0.02


def test_cli_limits_refuses_a_recursion_without_a_law(monkeypatch, capsys):
    # each row sums to 5, past p^2 = 4: a(n) grows faster than n^2
    rec = RecursionSpec(p=2, rows=((3, 2), (2, 3)), constant=0, initials=(1, 2, 3), threshold=3)
    monkeypatch.setattr(blocks, "infer_recursion", lambda f: rec)
    code, out, err = run(capsys, "limits", "--poly", "1+x+x^3")
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: 1+x+x^3 mod 2: p^2 = 4 is not a simple dominant root")


def test_cli_linear_a_has_a_recursion_but_no_law(capsys):
    # a(n) = n + 1 for f = 1 mod 2: the fit answers, and a(n) grows too slowly
    # for p^2 to be the dominant root of M_0
    code, out, _ = run(capsys, "infer", "--poly", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rec = RecursionSpec(p=2, rows=tuple(tuple(int(c) for c in row) for row in doc["rows"]),
                        constant=int(doc["constant"]), threshold=int(doc["threshold"]),
                        initials=tuple(int(v) for v in doc["initials"]))
    assert a_from_recursion_range(rec, 100) == list(range(1, 102))
    code, out, err = run(capsys, "limits", "--poly", "1")
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: 1 mod 2: p^2 = 4 is not a simple dominant root")


def test_cli_limits_refuses_a_law_past_the_grid_cap(capsys):
    # 1+x mod p is checked on level 2 in the cells [1, 2], [2, 3] and [3, 4]
    # of [1, p], and on level 1 elsewhere: 3p^2 + (p - 4)p + 1 points, 40805
    # at p = 101 and 145161 at p = 191, over MAX_LAW_POINTS
    pieces = law_pieces(capsys, "1+x", 101)
    assert [(pc["lo"], pc["hi"]) for pc in pieces] == [
        (Fraction(1, 101), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 2), 1)]
    code, out, err = run(capsys, "limits", "--poly", "1+x", "--prime", "191")
    assert (code, out) == (3, "")
    assert err == ("diagnostic: 1+x mod 191: no piece structure confirmed on grids "
                   "within MAX_LAW_POINTS = 131072\n")


# SHA-256 of the output of the closed-form tables the laws are now derived
# from; it must not move.
LIMITS_SHA256 = {
    ("1+x", "2", "json"): "5a839d28651c4f9f61c776b5dac4200869598c6c3ca88e4156bd430e905f775e",
    ("1+x", "2", "csv"): "c4e868356a88f71afa46427c740a5ee803adaa83491cad1686581bd62838af2d",
    ("1+x", "3", "json"): "18a3cd3f3c9c87ceca0ee5a87e2ded2a5c8416fb0814aee99548501ba3d03fd4",
    ("1+x", "3", "csv"): "6f291d19040cfb471c3f98c36298321920ff2bb0ca897a0e999c8162c3c6678d",
    ("1+x", "5", "json"): "d457bfb461f3a49c6cd8927184b4336e6a9d4f2b72e3a20c115538c71fe4da7c",
    ("1+x", "5", "csv"): "0c4b2656df302bdfe48e8fa83b6c9d18de1c5857621b1a5032526aa7f4dc1845",
    ("1+x", "7", "json"): "18486cbf223d091df030182211bd0fe2f5083cd0bf510e5e4355c3d921c0d97b",
    ("1+x", "7", "csv"): "55af72fbfe231143b119dc0ed4f7aa91abba4f97c2f818787ab0faefb30b67c5",
    ("1+x", "11", "json"): "557cc23cad158190741fd1f13deaf81f84e4f19bc9bd4814eb7fc5a5b40ddffe",
    ("1+x", "11", "csv"): "c42c978ce685ec5ddbc49e493bc19e7f60c85e178050f13094111c7a2650d134",
    ("1+x", "13", "json"): "6f4a4a9436f1c233e250db6d1bbbffcf6e9daa7840e984d9683a6a3ded9c05c5",
    ("1+x", "13", "csv"): "fcf5e03bf134b3058f3f1e4ab82add352a08ad9037b6e2eaf3886c4a60f05078",
    ("1+x+x^2", "2", "json"): "d0040ac6f7213453fd0e9ffe9b6030869d56f9c9b15800179cde3d5994a85025",
    ("1+x+x^2", "2", "csv"): "de0e528c9008fbdb5dea886a7c1726f9c9876375d8cb323f86b1d22a31af93e3",
}


@pytest.mark.parametrize("key", LIMITS_SHA256, ids=lambda k: "-".join(k))
def test_cli_limits_output_is_unchanged(capsys, key):
    poly, p, fmt = key
    code, out, _ = run(capsys, "limits", "--poly", poly, "--prime", p, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIMITS_SHA256[key]


# ----------------------------------------------------------------- willson --


def test_cli_willson_json(capsys):
    code, out, _ = run(capsys, "willson", "--poly", "1+x", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 3.0
    assert doc["recurrence"] == ["-3", "1"]
    assert "charpoly" not in doc
    assert doc["minpoly"] == ["-3", "1"]
    assert doc["degree"] == "1"
    # the nonzero 2-windows 01, 10, 11, none of them trimmed
    assert doc["states"] == doc["states_trimmed"] == 3


def test_cli_willson_odd_prime(capsys):
    code, out, _ = run(capsys, "willson", "--poly", "1+x", "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 6.0  # p(p+1)/2
    assert doc["recurrence"] == doc["minpoly"] == ["-6", "1"]
    assert doc["dimension"] == math.log2(6) / math.log2(3)
    # eigen_bound is a bound mod 2 only
    assert doc["bound"] is None
    assert doc["states"] == doc["states_trimmed"] == 8
    code, out, _ = run(capsys, "willson", "--poly", "1+x", "--prime", "3", "--format", "tsv")
    assert code == 0
    assert out.split("\n")[1] == "1+x\t6.000000\t1\t1.630930\tn/a"
    # 13^4 edges are under the cap
    code, out, _ = run(capsys, "willson", "--poly", "1+x", "--prime", "13")
    assert code == 0 and json.loads(out)["lambda"] == 91.0


def test_cli_willson_constant_mod_2(capsys):
    # one nonzero digit per row: lambda = p, and eigen_bound needs degree >= 1
    code, out, _ = run(capsys, "willson", "--poly", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lambda"], doc["bound"]) == (2.0, None)
    code, out, _ = run(capsys, "willson", "--poly", "1", "--format", "tsv")
    assert code == 0
    assert out.split("\n")[1] == "1\t2.000000\t1\t1.000000\tn/a"


def test_cli_willson_depth_check(capsys):
    code, out, _ = run(
        capsys, "willson", "--poly", "1+x+x^2", "--depth", "6", "--format", "tsv"
    )
    assert code == 0
    assert out.startswith("poly\tlambda\t")


def test_cli_survey_tsv(capsys):
    code, out, _ = run(capsys, "survey", "--max-deg", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "1+x"


# ------------------------------------------------------------------- infer --


def test_cli_infer_json(capsys):
    code, out, _ = run(
        capsys, "infer", "--poly", "1+x+x^2", "--prime", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [["2", "2"], ["1", "2", "1"]]
    assert doc["constant"] == "8"


def test_cli_infer_csv_header(capsys):
    code, out, _ = run(
        capsys, "infer", "--poly", "1+x", "--prime", "3", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("k,c0,")


# ------------------------------------------------------------- exit codes ---


def test_exit_code_2_for_usage_and_value_errors(capsys):
    assert run(capsys, "blocks", "--poly", "1+y")[0] == 2  # parse failure
    assert run(capsys, "blocks", "--poly", "1+x", "--prime", "4")[0] == 2
    assert run(capsys, "nonsense")[0] == 2  # argparse usage error


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["willson", "--poly", "1+x+x^22"], "MAX_TRANSFER_EDGES = 32768"),
        (["survey", "--max-deg", "13"], "MAX_TRANSFER_EDGES = 32768"),
        (["series", "--poly", "1+x^300000000", "--terms", "3"], "MAX_POLY_DEGREE = 65536"),
        (["series", "--poly", "1+x", "--terms", "300000000"], "MAX_TERMS = 262144"),
        (["blocks", "--poly", "1+x", "--n", "300000000"], "MAX_TERMS = 262144"),
        (["willson", "--poly", "1+x+x^2", "--prime", "11"], "MAX_TRANSFER_EDGES = 32768"),
        (["willson", "--poly", "1+x", "--prime", "17"], "MAX_TRANSFER_EDGES = 32768"),
        (["willson", "--poly", "1+x+x^3", "--depth", "18"], "MAX_VERIFY_ROWS = 16384"),
        (["survey", "--max-deg", "2", "--depth", "18"], "MAX_VERIFY_ROWS = 16384"),
        (["willson", "--poly", "1+x", "--prime", "5", "--depth", "7"], "MAX_VERIFY_ROWS = 16384"),
        (["infer", "--poly", "1+x+x^2", "--prime", "3", "--window", "1000000000"],
         "MAX_TERMS = 262144"),
        (["blocks", "--poly", "1+x", "--prime", "1000000007", "--n", "3"],
         "MAX_RECURSION_PRIME = 1048576"),
        (["limits", "--poly", "1+x", "--prime", "1000000007"], "MAX_RECURSION_PRIME = 1048576"),
    ],
    ids=["willson", "survey", "parse", "terms", "n", "edges-mod-11", "edges-mod-17",
         "willson-depth", "survey-depth", "depth-mod-5", "window", "recursion-prime",
         "limits-prime"],
)
def test_short_inputs_past_a_cap_exit_2(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    # refused before any large work starts
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and cap in err


@pytest.mark.parametrize(
    "argv,msg",
    [
        (["blocks", "--poly", "1+x", "--n", "-1"], "--n must be >= 0"),
        (["blocks", "--poly", "1+x", "--n", "-1", "--engine", "scan"], "--n must be >= 0"),
        (["blocks", "--poly", "1+x", "--n", "-1", "--engine", "recursion"], "--n must be >= 0"),
        (["series", "--poly", "1+x", "--terms", "-1"], "--terms must be >= 0"),
        (["infer", "--poly", "1+x+x^2", "--window", "-1"], "--window must be >= 0"),
        (["willson", "--poly", "1+x", "--depth", "-1"], "depth must be >= 0"),
        (["survey", "--max-deg", "2", "--depth", "-1"], "depth must be >= 0"),
        (["limits", "--poly", "1+x", "--oscillation", "0"], "k_max must be >= 1"),
        (["limits", "--poly", "1+x", "--oscillation", "-3", "--samples", "2"],
         "k_max must be >= 1"),
        (["limits", "--poly", "1+x", "--oscillation", "2", "--samples", "100000000"],
         "over MAX_SAMPLE_DIGITS = 262144"),
    ],
    ids=["n", "n-scan", "n-recursion", "terms", "window", "willson-depth", "survey-depth",
         "kmax", "negative-kmax", "samples"],
)
def test_out_of_range_inputs_exit_2(capsys, argv, msg):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and msg in err


def test_cli_limits_oscillation_past_the_recursion_limit(capsys):
    # a(3^600) descends 600 base-3 digits; a recursive evaluation overflowed
    # the interpreter's stack here
    code, out, _ = run(
        capsys, "limits", "--poly", "1+x", "--prime", "3",
        "--oscillation", "600", "--samples", "1",
    )
    assert code == 0
    lines = out.split()
    assert len(lines) == 601 and lines[-1].startswith("600,")
    # SHA-256 of the table: exact floors of p^(k + j/s) move n past 2^53
    # against float products, but no printed digit
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "97a71583f5f1d35a5fdceaaa645c3385e865e762560c25a79e5b142f8a287177")


def test_cli_limits_oscillation_past_the_float_range(capsys):
    # 3^700 is past the largest double; the samples are exact integer roots
    code, out, err = run(
        capsys, "limits", "--poly", "1+x", "--prime", "3",
        "--oscillation", "700", "--samples", "1",
    )
    assert (code, err) == (0, "")
    lines = out.split()
    assert len(lines) == 701 and lines[-1] == "700,3.5"


@pytest.mark.parametrize(
    "kmax,samples",
    # one octave of 262144 samples takes roots of powers of 3^262144 and up
    [("100000", "1"), ("724", "1"), ("400", "4"), ("1", "262144"), ("1", "419")],
)
def test_cli_limits_oscillation_work_cap_exits_2(capsys, kmax, samples):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "limits", "--poly", "1+x", "--prime", "3",
        "--oscillation", kmax, "--samples", samples,
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "over MAX_SAMPLE_DIGITS = 262144" in err


def test_length_cap_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_TERMS", 10)
    for argv in (["series", "--poly", "1+x", "--terms"], ["blocks", "--poly", "1+x", "--n"]):
        code, out, _ = run(capsys, *argv, "10")
        assert code == 0 and len(out.split()) == 12  # header and a(0..10)
        assert run(capsys, *argv, "11")[0] == 2
    # the scan engine is capped by the same flag
    assert run(capsys, "blocks", "--poly", "1+x", "--n", "11", "--engine", "scan")[0] == 2


def test_removed_spectral_flags_are_usage_errors(capsys):
    assert run(capsys, "willson", "--poly", "1+x", "--budget", "5")[0] == 2
    assert run(capsys, "willson", "--poly", "1+x", "--exact")[0] == 2
    assert run(capsys, "survey", "--max-deg", "2", "--budget", "5")[0] == 2


def test_rows_beyond_a_byte_are_refused(capsys):
    # rows hold one digit per byte; p = 257 would wrap digit 256 to 0
    with pytest.raises(ValueError):
        render_fractal(FpPoly.make(257, [1, 1]), 4)
    assert run(capsys, "fractal", "--poly", "1+x", "--prime", "257", "--rows", "4")[0] == 2
    code, out, err = run(
        capsys, "blocks", "--poly", "1+x+x^2", "--prime", "257", "--n", "3", "--engine", "scan"
    )
    assert (code, out) == (2, "")
    assert "p must be <= 255" in err


def test_exit_code_3_for_diagnostics(capsys):
    code, _, err = run(
        capsys, "infer", "--poly", "1+x+x^2", "--prime", "2", "--window", "7"
    )
    assert code == 3
    assert "diagnostic" in err
    code, _, err = run(capsys, "fractal", "--poly", "1+x", "--rows", "16384")
    assert code == 3


def test_oversized_closure_exits_3(capsys):
    # the fixpoint of 5-blocks of this cubic would cut 92 million candidates
    code, out, err = run(capsys, "blocks", "--poly", "3+5x+16x^3", "--prime", "17", "--n", "4")
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: the expansion of ")
    assert err.endswith(f"over the cap of {2**28}\n")


def test_failed_certificate_exits_3(monkeypatch, capsys):
    # a wrong recurrence from every prime stabilizes under CRT, so only the
    # exact check over the integers can reject it
    monkeypatch.setattr(_zzpoly, "_berlekamp_massey", lambda seq, q: [-2, 1])
    code, out, err = run(capsys, "willson", "--poly", "1+x")
    assert (code, out) == (3, "")
    assert err.startswith("diagnostic: recurrence fails at term 1")


def test_module_entry_point_and_import_stay_apart():
    env = {**os.environ, "PYTHONPATH": str(Path(polypow.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "polypow.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: polypow")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, polypow; assert 'polypow.cli' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- file out --


def test_out_writes_atomically(tmp_path, capsys):
    target = tmp_path / "triangle.pbm"
    code, out, _ = run(
        capsys, "fractal", "--poly", "1+x", "--rows", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # everything went to the file
    assert target.read_text() == "P1\n4 4\n1 0 0 0\n1 1 0 0\n1 0 1 0\n1 1 1 1\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".polypow-")]
    assert leftovers == []


def test_out_overwrites_previous_content(tmp_path, capsys):
    target = tmp_path / "a.csv"
    target.write_text("stale")
    code, _, _ = run(capsys, "blocks", "--poly", "1+x", "--n", "3", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("n,a_n\n")


@pytest.mark.parametrize("where", ["missing/a.csv", "dir"], ids=["missing-parent", "directory"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    (tmp_path / "dir").mkdir()
    target = tmp_path / where
    code, out, err = run(capsys, "blocks", "--poly", "1+x", "--n", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert "Traceback" not in err
    assert list(tmp_path.rglob(".polypow-*")) == []
    assert list((tmp_path / "dir").iterdir()) == []
