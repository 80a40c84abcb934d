"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload cli-files --runs 10 [--first-seed 1]

Runs the benchmark --runs times, each with its own seed, and prints for
every metric the median and the quartile spread (Q3 - Q1) / median as
Python's statistics.quantiles(values, n=4) gives them, next to the
metric's bound.  A spread above a third of the bound is flagged: such a
metric cannot tell a regression of the bound's size from noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        wall = time.monotonic() - t0
        result = json.loads(out.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {wall:.1f} s, failed "
              f"{result['failed']}/{result['attempted']}"
              + ("" if result["correct"] else " INCORRECT"), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:40s} median {med:12.6g}  spread {spread:7.2%}  "
              f"bound {bound}{flag}")


if __name__ == "__main__":
    main()
