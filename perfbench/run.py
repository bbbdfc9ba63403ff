#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot-dispatch --seed 1 --seconds 20 --trace 0

The benchmark is the OCaml program perfbench/bench.ml.  This script builds
it from the checkout's sources with dune (build directory .bench_build,
dune's shared cache off, so nothing is written outside the checkout),
runs it, checks its result line and prints that line last.  The exit code
is 0 only when every execution matched its expected output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("hot-dispatch", "vm-warm", "bounded-session")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, with their units."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("no execution was attempted")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--variant", choices=("normal", "debug_checks", "attribution", "subscriber"),
                    default="normal",
                    help="a configuration known to be slower (sensitivity self-test only)")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--expected", os.path.join(HERE, "expected.tsv"),
           "--variant", a.variant]
    if a.trace == 1:
        cmd += ["--spans-out",
                os.path.join(OUT_DIR, f"spans-{a.workload}-{a.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    res = check_result(lines[-1], a.trace)
    print(json.dumps(res))
    if r.returncode != 0 or not res["correct"] or res["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
