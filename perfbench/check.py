#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py spread      [--workloads W,..] [--seeds 1-10] [--seconds S]
    python3 perfbench/check.py heldout     [--workloads W,..] [--runs 5] [--seconds S]
    python3 perfbench/check.py sensitivity [--runs 5] [--seconds S]

spread       runs each workload once per seed and prints, for every end-to-end
             metric, the median and the spread (distance between the first and
             third quartile, as a share of the median) next to the metric's
             bound from BENCHMARK.json.  Exit 1 if a spread other than setup_s's
             exceeds its bound.
heldout      runs the default seed and the held-out seed alternately and checks
             that the held-out medians are within the bounds of the default
             seed's medians.
sensitivity  runs hot-dispatch alternately with the normal configuration and
             with a configuration known to be slower (debug_checks on), and
             checks that the regression rule flags blocks_per_s.  It then
             checks that a configuration known to allocate more (a counting
             events subscriber) is flagged on minor_words_per_block, and
             reports the same comparison for attribution on, which allocates
             nothing per block.

The regression rule is the one a change is judged by: a metric regresses when
its median is worse than the base median by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELDOUT_SEED = 2


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, variant="normal"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--variant", variant]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    line = r.stdout.rstrip("\n").split("\n")[-1]
    res = json.loads(line)
    if r.returncode != 0 or not res["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{r.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, base, new):
    """How much worse [new] is than [base], as a share of [base]."""
    b, n = statistics.median(base), statistics.median(new)
    return (b - n) / b if metric["better"] == "higher" else (n - b) / b


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(a):
    bench = spec()
    ok = True
    for w in a.workloads:
        runs = []
        for seed in a.seeds:
            runs.append(run(w, seed, a.seconds))
            print(f"{w} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            s = spread(vals)
            flag = ""
            if s > m["bound"] and m["name"] != "setup_s":
                ok = False
                flag = "  OVER BOUND"
            elif s > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {w:16} {m['name']:22} median {statistics.median(vals):14.6g} "
                  f"spread {s:.4f} bound {m['bound']}{flag}")
    return ok


def cmd_heldout(a):
    bench = spec()
    ok = True
    for w in a.workloads:
        base, held = [], []
        for i in range(a.runs):
            order = [(DEFAULT_SEED, base), (HELDOUT_SEED, held)]
            for seed, acc in (order if i % 2 == 0 else order[::-1]):
                acc.append(run(w, seed, a.seconds))
        for m in bench["end_to_end"]:
            d = worse_by(m, [r[m["name"]] for r in base], [r[m["name"]] for r in held])
            verdict = "ok" if abs(d) <= m["bound"] else "OUTSIDE BOUND"
            ok &= verdict == "ok"
            print(f"  {w:16} {m['name']:22} held-out vs default {d:+.4f} "
                  f"(bound {m['bound']}) {verdict}")
    return ok


def cmd_sensitivity(a):
    bench = {m["name"]: m for m in spec()["end_to_end"]}
    ok = True
    # minor_words_per_block is deterministic: one pair settles it.
    for variant, metric, runs, must_flag in (
            ("debug_checks", "blocks_per_s", a.runs, True),
            ("subscriber", "minor_words_per_block", 1, True),
            ("attribution", "minor_words_per_block", 1, False)):
        base, var = [], []
        for i in range(runs):
            pair = [("normal", base), (variant, var)]
            for v, acc in (pair if i % 2 == 0 else pair[::-1]):
                acc.append(run("hot-dispatch", DEFAULT_SEED, a.seconds, variant=v))
        m = bench[metric]
        d = worse_by(m, [r[metric] for r in base], [r[metric] for r in var])
        flagged = d > m["bound"]
        if must_flag:
            ok &= flagged
        print(f"  {variant:13} {metric:22} worse by {d:+.4f} (bound {m['bound']}): "
              f"{'flagged as a regression' if flagged else 'not flagged'}"
              f"{'' if must_flag else ' (for the record)'}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("command", choices=("spread", "heldout", "sensitivity"))
    ap.add_argument("--workloads", default="hot-dispatch,vm-warm,bounded-session",
                    type=lambda s: s.split(","))
    ap.add_argument("--seeds", default="1-10", type=seeds_arg)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    a = ap.parse_args()
    ok = {"spread": cmd_spread, "heldout": cmd_heldout,
          "sensitivity": cmd_sensitivity}[a.command](a)
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
