#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with its own seed,
and print every metric's median and quartiles.

    python3 perfbench/steady.py --workload index-mixed --runs 10

Run it from the root of the checkout. It reads the command, the run
length and the bounds from BENCHMARK.json. The spread of a metric is the
distance between its first and third quartile as a share of its median,
the way statistics.quantiles(values, n=4) gives them. A metric whose
spread exceeds its bound is flagged EXCEEDS. One whose spread exceeds a
third of its bound is flagged 'wide', since the benchmark should stay
well inside its bounds. setup_s is exempt from the spread check. With
--trace 1 it reports the per-layer metrics instead, which have no bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit("unknown workload %r" % a.workload)
    seconds = a.seconds or bench["run_seconds"]
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]

    values = {m["name"]: [] for m in declared}
    for i in range(a.runs):
        seed = a.seed0 + i
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(a.trace)]
        t0 = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        took = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %.1f s, correct=%s attempted=%d failed=%d" % (
            seed, took, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        if not result["correct"] or result["failed"]:
            print("  FAILED: the run's answers did not all pass their oracle")

    print("%-32s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in declared:
        xs = values[m["name"]]
        if len(xs) >= 2:
            q1, med, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = med = q3 = xs[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            if spread > bound:
                flag = "EXCEEDS"
            elif spread > bound / 3:
                flag = "wide"
        print("%-32s %12.5g %12.5g %12.5g %7.1f%% %6s %s" % (
            m["name"], q1, med, q3, 100 * spread,
            "" if bound is None else "%g" % bound, flag))


if __name__ == "__main__":
    main()
