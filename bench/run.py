"""Benchmark of the three equilibrium routes: run workloads, check outputs,
report metrics.

    python3 bench/run.py [--workload NAME[,NAME...]] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a process of its own (bench/worker.py) with one thread
for every numeric library and a fixed hash seed, so ``peak_rss_mb`` is per
workload.  With one workload the last line of standard output is that
workload's JSON result; with several it is one JSON object whose metric names
are prefixed by the workload.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("simulate_8x8", "halt_2x2", "solve_10x30", "psys_10x30")

#: The benchmark's own environment: single-threaded numeric libraries.
SINGLE_THREAD = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25,
                        help="measured seconds per workload, after one warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "psrelief" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program source at {ROOT / 'src' / 'psrelief'}\n")
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    results = {}
    for name in names:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"error: workload {name} exited with status {done.returncode}\n")
            return 1
        results[name] = json.loads(lines[-1])
        if len(names) == 1:
            sys.stdout.write(done.stdout)
            return 0
        sys.stdout.write("\n".join(lines[:-1]) + "\n")

    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
