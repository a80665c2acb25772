#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric its median, quartiles and the distance between the first
and third quartile as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json.  A spread at or
above a third of its bound is flagged.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, the quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, failures = {}, 0
    for seed in seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            failures += 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = iqr_share(vs)
        bound = bounds.get(name)
        flag = "  <-- spread >= bound/3" if bound and not spread < bound / 3 else ""
        print("%-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s%s"
              % (name, q2, q1, q3, spread, bound, flag))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
