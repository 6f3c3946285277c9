#!/usr/bin/env python3
"""Builds the COSMOS library in Release and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload sensor_select --seed 1 \
        --seconds 15 --trace 0

The last line of standard output is the benchmark's JSON result. With
--selftest the script instead checks determinism: two runs of one seed
must agree exactly on the deterministic metrics and on every registry
count, and a second seed must report the same metric names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170

# Metrics that depend only on the seed, never on the machine.
DETERMINISTIC = ["bytes_x_links", "delivery_ms_p50", "delivery_ms_p99"]
DETERMINISTIC_TRACED = ["core.groups", "cbn.table_entries", "spe.tuples_in",
                        "spe.results_out", "sim.events_per_tuple"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base / "cosmos_e2e"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "--target", "cosmos_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out / "cosmos_e2e"


def run(binary, workload, seed, seconds, trace, echo=True):
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(traces)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, traces / f"{workload}-{seed}.metrics.json"


def registry_counts(path):
    snap = json.loads(path.read_text())
    return {"counters": snap.get("counters"), "gauges": snap.get("gauges")}


def selftest(binary, args):
    problems = []
    seed, other = args.seed, args.seed + 1

    def go(s, trace):
        code, result, metrics_file = run(binary, args.workload, s,
                                         args.seconds, trace, echo=False)
        if code != 0 or result is None:
            problems.append(f"seed {s} trace {trace}: exit {code}")
            return {}, None
        return result["metrics"], metrics_file

    a, _ = go(seed, 0)
    b, _ = go(seed, 0)
    for name in DETERMINISTIC:
        if a.get(name) != b.get(name):
            problems.append(f"{name} differs for seed {seed}: "
                            f"{a.get(name)} vs {b.get(name)}")
    ta, file_a = go(seed, 1)
    counts_a = registry_counts(file_a) if file_a else None
    tb, file_b = go(seed, 1)
    counts_b = registry_counts(file_b) if file_b else None
    for name in DETERMINISTIC_TRACED:
        if ta.get(name) != tb.get(name):
            problems.append(f"{name} differs for seed {seed}: "
                            f"{ta.get(name)} vs {tb.get(name)}")
    if counts_a != counts_b:
        problems.append(f"registry counts differ for seed {seed}")
    c, _ = go(other, 0)
    tc, _ = go(other, 1)
    if set(c) != set(a) or set(tc) != set(ta):
        problems.append(f"seed {other} reports other metric names")
    for p in problems:
        log("SELFTEST: " + p)
    print(f"selftest {args.workload}: "
          f"{'ok' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("cosmos_e2e: build failed")
        return 2
    if args.selftest:
        return selftest(binary, args)
    try:
        code, _, _ = run(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    except subprocess.TimeoutExpired:
        log(f"cosmos_e2e: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
