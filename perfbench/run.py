"""Benchmark of framec: decide dual-frame completions, time them, check them.

    python3 perfbench/run.py --workload small-mixed --seed 1 --trace 0
    python3 perfbench/run.py --workload all           # every workload in turn

Run from anywhere; the package is imported from src/ next to this
directory.  Each workload runs in a fresh process with BLAS pinned to one
thread.  The last line printed is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Everything else
printed before it is for people.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

# Pinned before numpy is first imported, so one BLAS thread serves the run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRAMEC_TOL", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and a single CLI round")
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] * args.smoke)
            status = subprocess.run(cmd, check=False).returncode or status
        return status

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "framec", "__init__.py")):
        print(f"no framec package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench
    return bench.run(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke, spec)


if __name__ == "__main__":
    sys.exit(main())
