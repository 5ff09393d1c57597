"""One measured pass of a workload, in a fresh process.

Started by run.py, one child at a time, so the closure cache, the lru_caches
and ru_maxrss all start clean.  The operations run on this process's main
thread, so the SIGALRM budget of integer factoring applies.  The last line of
standard output is one JSON record; a traced child also writes its spans.

    python3 bench/child.py --workload closure --seed 3 --mode plain
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import polypow
    if not Path(polypow.__file__).resolve().is_relative_to(SRC):
        print(f"polypow imported from {polypow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    ops = workloads.build(args.workload, args.seed, args.tiny)
    record = {"setup_done": time.monotonic(), "seed": args.seed}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracing import Tracer
            tracer = Tracer(args.run_id)
            record["dropped"] = tracer.install()
        try:
            record.update(workloads.run_pass(ops, tracer))
        finally:
            if tracer is not None:
                tracer.write(args.spans)
        # ru_maxrss is in KiB on Linux
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: freeing a large closure takes seconds and is
    # not part of any measurement.
    os._exit(main())
