#!/usr/bin/env python3
"""Run one workload at several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload train-full --seeds 1-10 --seconds 35

The spread is (q3 - q1) / median with statistics.quantiles(n=4), the figure
BENCHMARK.json's bounds are compared with. Runs are sequential, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    rows = []
    for s in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(s), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=os.path.dirname(HERE))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"seed {s}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        rows.append(res)
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)
    print(f"{'metric':<40} {'median':>12} {'spread':>8}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{name:<40} {median(values):>12.5g} {spread:>8.2%}")
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
