"""Command-line front end: subcommand dispatch, CSV/JSON/TSV/PBM emission.

Exit codes: 0 success, 2 parse or usage error, 3 computation diagnostic
(inference without a consistent recursion, a recursion without r(z) in
r(z)G(z) = r(z^p)G(z^p) + b(z), a failed count check or spectral
certificate, a limit law that cannot be derived, or an oversized bitmap or
closure step).  Inputs outside a documented range are usage errors: a
negative --n, --terms, --window or --depth; --n, --terms and --window above
MAX_TERMS; the 1+x recursion at a prime above blocks.MAX_RECURSION_PRIME; an
--oscillation KMAX below 1, or samples past asympt.MAX_SAMPLE_DIGITS; a term
of degree above fpoly.MAX_POLY_DEGREE; a willson polynomial of degree d mod
p or a survey --max-deg d (p = 2) with p^(d+3) above
willson.MAX_TRANSFER_EDGES; a willson or survey --depth with p^depth
above willson.MAX_VERIFY_ROWS, or with p^depth times the number of states
above willson.MAX_VERIFY_CELLS; and an --out that cannot be written, such as
a path in a missing directory or a directory itself.
Output goes to stdout unless --out is given, in which case it is written to a
temp file and renamed into place; a failed write removes the temp file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import contextmanager

from . import asympt, blocks, genfun, willson
from .fpoly import (
    BitmapSizeError,
    FpPoly,
    format_poly,
    parse_poly,
    render_fractal,
    to_pbm,
)

# Longest value list --terms and --n may ask for: about 3 s and 140 MB.  A
# closure level of length n holds at least n+1 blocks of n digits, so no
# --engine scan run above 2^14 fits under blocks.MAX_CELLS anyway.
MAX_TERMS = 1 << 18


# ---------------------------------------------------------------------------
# Output helpers


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target, tmp = os.path.abspath(out), None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".polypow-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _values(f: FpPoly, values: list[int], fmt: str) -> str:
    """a(0..n) of blocks and series, as CSV or JSON."""
    if fmt == "csv":
        return genfun.series_to_csv(values)
    return _json({"poly": format_poly(f), "prime": str(f.p), "a": [str(v) for v in values]})


@contextmanager
def _naming(f: FpPoly):
    """Prefix the diagnostic of a refused derivation with the polynomial."""
    try:
        yield
    except ArithmeticError as exc:
        raise ArithmeticError(f"{format_poly(f)} mod {f.p}: {exc}") from exc


def _length(option: str, n: int) -> int:
    if n < 0:
        raise ValueError(f"{option} must be >= 0, got {n}")
    if n > MAX_TERMS:
        raise ValueError(f"{option} {n} exceeds MAX_TERMS = {MAX_TERMS}")
    return n


def _poly_arg(args) -> FpPoly:
    return parse_poly(args.poly, args.prime)


# ---------------------------------------------------------------------------
# Subcommands


def _is_1px(f: FpPoly) -> bool:
    """1+x has a proven recursion and a hand-made closed series."""
    return f.coeffs == (1, 1)


def _recursion(f: FpPoly) -> blocks.RecursionSpec:
    """The closed 1+x recursion, else one inferred from the closure."""
    return blocks.recursion_1px(f.p) if _is_1px(f) else blocks.infer_recursion(f)


def _cmd_blocks(args) -> str:
    f = _poly_arg(args)
    n = _length("--n", args.n)
    if args.engine == "scan" or (args.engine == "auto" and not _is_1px(f)):
        values = blocks.line_complexity_range(f, n)
    else:
        values = blocks.a_from_recursion_range(_recursion(f), n)
    return _values(f, values, args.format)


def _cmd_series(args) -> str:
    f = _poly_arg(args)
    terms = _length("--terms", args.terms)
    if _is_1px(f):
        values = genfun.series_1px(f.p, terms)
    else:
        with _naming(f):
            values = genfun.series(_recursion(f), terms)
    return _values(f, values, args.format)


def _cmd_limits(args) -> str:
    f = _poly_arg(args)
    with _naming(f):
        if args.oscillation is not None:
            table = asympt.oscillation_table(_recursion(f), args.samples, args.oscillation)
            return asympt.oscillation_csv(table)
        rec = _recursion(f)
        law, ex = asympt.limit_function(rec), asympt.extrema(rec)
    if args.format == "json":
        return _json(
            {
                "poly": format_poly(f),
                "prime": str(f.p),
                "pieces": [
                    {
                        "lo": str(pc.lo),
                        "hi": str(pc.hi),
                        "a": str(pc.a),
                        "b": str(pc.b),
                        "c": str(pc.c),
                    }
                    for pc in law.pieces
                ],
                "inf": str(ex.inf),
                "sup": str(ex.sup),
                "arg_inf": str(ex.arg_inf),
                "arg_sup": str(ex.arg_sup),
            }
        )
    lines = ["lo,hi,a,b,c"]
    for pc in law.pieces:
        lines.append(f"{pc.lo},{pc.hi},{pc.a},{pc.b},{pc.c}")
    return "\n".join(lines) + "\n"


def _cmd_willson(args) -> str:
    f = _poly_arg(args)
    system, res = willson.spectrum(f, args.depth)
    row = willson.survey_row(f, res)
    if args.format == "tsv":
        return willson.survey_tsv(willson.SurveyResult((row,), (), ()))
    lo, hi = res.interval
    return _json(
        {
            "poly": format_poly(f),
            "lambda": res.lam,
            "interval_lo": str(lo),
            "interval_hi": str(hi),
            "recurrence": [str(c) for c in res.recurrence],
            "minpoly": [str(c) for c in res.minpoly],
            "degree": str(res.degree),
            "dimension": res.dimension,
            "bound": row.bound,
            "states": len(system.states),
            "states_trimmed": len(system.trimmed),
        }
    )


def _cmd_survey(args) -> str:
    result = willson.survey(args.max_deg, depth=args.depth)
    if args.format == "json":
        return _json(
            {
                "rows": [
                    {
                        "poly": format_poly(row.poly),
                        "lambda": row.result.lam,
                        "degree": str(row.result.degree),
                        "dimension": row.result.dimension,
                        "bound": row.bound,
                        "bound_ok": row.bound_ok,
                    }
                    for row in result.rows
                ],
                "lambda_max": [
                    {"deg": k, "lambda": lam} for k, lam in result.lambda_max
                ],
                "collisions": [list(pair) for pair in result.collisions],
            }
        )
    return willson.survey_tsv(result)


def _cmd_infer(args) -> str:
    f = _poly_arg(args)
    window = None if args.window is None else _length("--window", args.window)
    rec = blocks.infer_recursion(f, window=window)
    if args.format == "csv":
        width = max(len(row) for row in rec.rows)
        header = "k," + ",".join(f"c{j}" for j in range(width)) + ",constant"
        lines = [header]
        for k, row in enumerate(rec.rows):
            padded = list(row) + [0] * (width - len(row))
            lines.append(f"{k}," + ",".join(str(c) for c in padded) + f",{rec.constant}")
        return "\n".join(lines) + "\n"
    return _json(
        {
            "poly": format_poly(f),
            "prime": str(rec.p),
            "rows": [[str(c) for c in row] for row in rec.rows],
            "constant": str(rec.constant),
            "threshold": str(rec.threshold),
            "initials": [str(v) for v in rec.initials],
        }
    )


def _cmd_fractal(args) -> str:
    f = _poly_arg(args)
    return to_pbm(render_fractal(f, args.rows))


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polypow",
        description="Coefficient patterns of powers of polynomials over Z/p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default):
        p.add_argument("--poly", required=True, help='e.g. "1+x+x^2" or "1,1,1"')
        p.add_argument("--prime", type=int, default=2)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default=default)

    p = sub.add_parser("blocks", help="line complexity a(n) by closure or recursion")
    common(p, ("csv", "json"), "csv")
    p.add_argument("--n", type=int, default=20, help="largest block length")
    p.add_argument(
        "--engine",
        choices=("auto", "scan", "recursion"),
        default="auto",
        help="scan: the exact closure for every n (no row scan); recursion: the "
        "1+x recursion or an inferred one; auto: the 1+x recursion, else the closure",
    )
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser(
        "series",
        help="generating-function prefix of a(n): the closed form of 1+x, else one "
        "derived from the inferred recursion",
    )
    common(p, ("csv", "json"), "csv")
    p.add_argument("--terms", type=int, default=64)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("limits", help="quadratic limit law and extrema")
    common(p, ("csv", "json"), "json")
    p.add_argument(
        "--oscillation",
        type=int,
        default=None,
        metavar="KMAX",
        help="emit the a(n)/n^2 table up to p^KMAX instead",
    )
    p.add_argument("--samples", type=int, default=4, help="grid points per octave")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("willson", help="spectral report for one polynomial")
    common(p, ("json", "tsv"), "json")
    p.add_argument("--depth", type=int, default=0, help="verify counts up to p^depth rows")
    p.set_defaults(func=_cmd_willson)

    p = sub.add_parser("survey", help="spectral survey of all classes")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("infer", help="fit the base-p recursion of a(n)")
    common(p, ("json", "csv"), "json")
    p.add_argument("--window", type=int, default=None,
                   help="fit to a(0..WINDOW) (default 4p + max(14, 3p))")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("fractal", help="PBM bitmap of nonzero coefficients")
    common(p, ("pbm",), "pbm")
    p.add_argument("--rows", type=int, default=256)
    p.set_defaults(func=_cmd_fractal)

    return parser


# ArithmeticError covers every failed spectral certificate, including
# willson.SpectralMismatchError.
_DIAGNOSTICS = (
    blocks.ClosureSizeError,
    blocks.InferenceError,
    ArithmeticError,
    BitmapSizeError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        text = args.func(args)
        _emit(text, args.out)
    except _DIAGNOSTICS as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
