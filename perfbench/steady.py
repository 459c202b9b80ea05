#!/usr/bin/env python3
"""Steadiness check: run each workload several times with different seeds
and print, for every end-to-end metric, the median, the quartiles and
the spread (q3 - q1) / median, next to the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

A metric is steady when its spread stays under a third of its bound
(setup_s is reported but not held to that).  Also prints the share of
failed operations per run, which must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    a = ap.parse_args()
    names = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        shares, walls = set(), []
        for i in range(a.runs):
            seed = a.first_seed + i
            t0 = time.monotonic()
            p = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
                                "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t0)
            if p.returncode != 0:
                print(f"{name} seed {seed}: run.py exited {p.returncode}")
                steady = False
                continue
            r = json.loads(p.stdout.rstrip("\n").split("\n")[-1])
            if not r["correct"]:
                print(f"{name} seed {seed}: correct = false")
                steady = False
            shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
            for m in values:
                values[m].append(r["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + "  ".join(f"{m}={r['metrics'][m]['value']:.6g}" for m in values)
                  + f"  ({walls[-1]:.1f} s)", flush=True)
        print(f"\n{name}: {len(walls)} runs, {statistics.mean(walls):.1f} s per run, failed shares {sorted(shares, key=str)}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m]["bound"] / 3
            steady &= ok
            print(f"  {m:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[m]['bound']:6.2f}"
                  + ("" if ok else "  NOT STEADY"))
        print(flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
