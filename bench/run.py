"""The polypow benchmark: one closed-loop client running exact computations.

    python3 bench/run.py --workload survey_scan --seed 1 --seconds 60 --trace 0

One researcher runs a workload's computations one after another, each waiting
for the previous answer (see workloads.py).  Each measured pass runs in a
fresh child process (child.py), one child at a time, with the BLAS and OpenMP
thread pools capped at the number of usable CPUs.  The run first starts one
unmeasured child that only imports, which compiles the bytecode of a fresh
checkout, then passes until `--seconds` would be exceeded, always at least
one; a set-up-only child precedes each of the first few passes.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (tracing.py), with the tracing overhead as traced minus
untraced wall_s.  Human-readable lines come first; the last line of standard
output is the JSON result.  The exit code is 1 when any operation failed and
2 when a child could not run; then no result is printed.  Spans and pass
records go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, layer_metrics, read_spans, summarize  # noqa: E402

WORKLOADS = ("survey_scan", "closure")
# end-to-end metric -> unit
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops": "count"}
SETUP_PROBES = 4
# every run must end within 180 s
HARD_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, mode: str, run_id: int, out_dir: Path, start: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--run-id", str(run_id)]
    if args.size == "tiny":
        cmd.append("--tiny")
    spans = out_dir / f"spans-{run_id}.jsonl"
    if mode == "traced":
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, HARD_LIMIT_S - (t0 - start)))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child {run_id} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} child {run_id} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec.update(mode=mode, run_id=run_id, setup_s=rec["setup_done"] - t0,
               elapsed_s=time.monotonic() - t0)
    if mode == "traced":
        rec["layers"] = layer_metrics(read_spans(spans), rec["op_s"])
    return rec


def measure(args, out_dir: Path) -> list[dict]:
    """Every child record of one run, the unmeasured warm-up excluded.

    A set-up probe precedes each of the first passes, so that setup_s samples
    the host's load over the whole run rather than over its first seconds.
    """
    start = time.monotonic()
    _spawn(args, "setup", 0, out_dir, start)
    modes = ("plain", "traced") if args.trace else ("plain",)
    probes: list[dict] = []
    passes: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        if len(probes) < SETUP_PROBES:
            probes.append(_spawn(args, "setup", len(probes) + len(passes) + 1, out_dir, start))
        mode = modes[len(passes) % len(modes)]
        passes.append(_spawn(args, mode, len(probes) + len(passes) + 1, out_dir, start))
        longest = max(longest, time.monotonic() - t0)
        finish = time.monotonic() - start + longest
        if len(passes) >= len(modes) and (finish > args.seconds or finish > HARD_LIMIT_S):
            break
    return probes + passes


def report(args, records: list[dict]) -> tuple[list[str], dict]:
    """Readable lines and the JSON result of one run's child records."""
    plain = [r for r in records if r["mode"] == "plain"]
    traced = [r for r in records if r["mode"] == "traced"]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    setups = [r["setup_s"] for r in records]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(plain)} untraced + {len(traced)} traced"]
    if args.trace:
        metrics = summarize(traced, plain)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        dropped = sorted({d for r in traced for d in r["dropped"]})
        if dropped:
            lines.append("dropped spans (attribute not found, reported as 0): " + ", ".join(dropped))
        share = metrics["zzpoly.charpoly.share"]
        lines.append(f"zzpoly.charpoly.s is {share:.1f}% of the traced time of the operations "
                     f"that call it (ROADMAP baseline for survey: 78%)")
    else:
        metrics = {
            "wall_s": median(p["wall_s"] for p in plain),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "ops": plain[0]["attempted"],
        }
        units = E2E_UNITS
    for name, value in metrics.items():
        n = len(setups) if name == "setup_s" else len(traced or plain)
        lines.append(f"{name:28s} {value:14.6f} {units[name]:6s} (median of {n})")
    lines.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    lines += [f"FAILED {msg}" for p in passes for msg in p["failures"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True, help="permutes the operation order")
    parser.add_argument("--seconds", type=float, required=True, help="measurement length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny problem sizes, for the benchmark's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "polypow" / "__init__.py").is_file():
        print(f"error: no polypow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    code = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        out_dir = ROOT / ".bench_out" / f"{name}-{args.size}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        try:
            records = measure(args, out_dir)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines, result = report(args, records)
        (out_dir / "records.json").write_text(json.dumps(records, indent=1))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        code = max(code, 0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
