#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark program
(perfbench/bench.ml) and the coalesce CLI it serves with are built from
source with dune into .bench_build/ (release profile, no shared dune
cache), then one workload runs.  The last line of standard output is the
result: one JSON object with correct, attempted, failed and metrics.
Metadata and, for traced runs, the recorded spans are also written under
.bench_build/perfbench-runs/.  Any failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "coalesce_cli.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-runs")
WORKLOADS = ["sweep-10k", "serve-mix", "exact-gadgets"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("dune-project"):
        fail("run from the root of a checkout (no dune-project here)", 2)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe",
           "./bin/coalesce_cli.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and sorted(r) == ["attempted", "correct", "failed", "metrics"]
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int)
            and all(isinstance(m.get("value"), (int, float))
                    for m in r["metrics"].values()))


def catalogue_checks():
    """BENCHMARK.json against the names and units the program reports."""
    done = subprocess.run([BENCH_EXE, "--catalogue"], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    program = json.loads(done.stdout)
    bench = json.load(open("BENCHMARK.json"))
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])

    def units(key):
        return {m["name"]: m["unit"] for m in bench[key]}

    return [
        (all(re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", n) for n in names),
         "every name in BENCHMARK.json matches [A-Za-z0-9_.-]+"),
        (len(set(names)) == len(names), "names are used once"),
        ([w["name"] for w in bench["workloads"]] == program["workloads"] == WORKLOADS,
         "BENCHMARK.json names the workloads the program runs"),
        (units("end_to_end") == program["end_to_end"],
         "BENCHMARK.json's end-to-end metrics and units are the program's"),
        (units("per_layer") == program["per_layer"],
         "BENCHMARK.json's per-layer metrics and units are the program's"),
    ]


def self_test():
    """The program's own checks, then the spread helper's against
    hand-computed values, then BENCHMARK.json against the program."""
    sys.dont_write_bytecode = True
    from spread import iqr_share
    code = subprocess.run([BENCH_EXE, "--self-test"],
                          timeout=RUN_TIMEOUT_S).returncode
    checks = [
        (abs(iqr_share(values) - expected) < 1e-9,
         "IQR share of %s: %s" % (values, why))
        for values, expected, why in [
            (list(range(1, 11)), 1.0, "quartiles 2.75 and 8.25, median 5.5"),
            ([10, 10, 11, 12], 1.75 / 10.5, "quartiles 10 and 11.75, median 10.5")]]
    for ok, what in checks + catalogue_checks():
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        code = code or (0 if ok else 1)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the harness helpers, op lists and BENCHMARK.json")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required", 2)

    build()
    if args.self_test:
        sys.exit(self_test())

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-exe", CLI_EXE, "--out", OUT_DIR]
    # Its own process group, so that a run past the limit is stopped
    # together with the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(out)
        fail("run failed (exit %d)" % proc.returncode)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
