"""Run one workload over several seeds and report each metric's median
and quartile spread (q3 - q1) / median, the steadiness figure the
metric bounds in ``BENCHMARK.json`` are checked against.

    python3 perfbench/repeat.py --workload bulk_range --runs 10 [--seconds 20]

Seeds are 1..runs unless ``--first-seed`` moves them. Each run's full
output goes to standard error; the summary table to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT
from stats import quartile_spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values: dict[str, list[float]] = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - t0)
        sys.stderr.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct {result['correct']}"
              f" attempted {result['attempted']} failed {result['failed']}"
              f" wall {walls[-1]:.1f} s", flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}  values")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:28s} {statistics.median(vals):12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}  "
              + " ".join(f"{v:.4g}" for v in vals) + flag)
    print(f"wall per run: median {statistics.median(walls):.1f} s,"
          f" max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
