#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/bench.exe with dune into the build directory
($CARGO_TARGET_DIR, default .bench_build, relative to the repository
root), runs it, and re-prints its output.  The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}.  A traced
run (--trace 1) also writes a Chrome trace to <build dir>/traces/.
Exits non-zero, without a result line, when the build or the run fails
or the output is malformed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ next to perfbench/: not a source checkout of the repository", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", "--build-dir", build_dir,
           os.path.join("perfbench", target)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found", 3)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s", 3)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"build failed (exit {p.returncode})", 3)
    return os.path.join(build_dir, "default", "perfbench", target)


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists for
    this kind of run, with the listed units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(r)}")
    if not isinstance(r["correct"], bool) or not isinstance(r["attempted"], int) \
            or not isinstance(r["failed"], int) or r["attempted"] < 1:
        raise ValueError("bad correct/attempted/failed")
    got = {name: m.get("unit") for name, m in r["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in listed}:
        raise ValueError("metrics differ from BENCHMARK.json")
    for name, m in r["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests instead")
    a = ap.parse_args()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if a.selftest:
        exe = build(build_dir, "selftest.exe")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if not a.workload:
        fail("--workload is required", 2)
    t0 = time.monotonic()
    exe = build(build_dir, "bench.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - t0)))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark exited {p.returncode}")
    try:
        check_result(lines[-1], a.trace)
    except (ValueError, IndexError) as e:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"malformed result line: {e}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
