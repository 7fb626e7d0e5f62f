#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload twice with the same seed and checks that everything
measured on the virtual clock, every per-layer count and
sim.events_per_op come out bit-identical. Then runs every workload once
with the held-out seed, which is kept for later claims and must run
clean. Usage, from the root of a checkout:

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid_dag", "data_staging", "portal_sessions")
SEED = 1
HELD_OUT_SEED = 20261017
VIRTUAL_END_TO_END = ("stage_virtual_MBps", "reply_vms_p50", "reply_vms_p99",
                      "turnaround_vs_p50", "turnaround_vs_p99")


def measured_on_cpu(name):
    """Per-layer metrics that are CPU times or shares of CPU time."""
    return (name.endswith("busy_s") or name.startswith("ledger.")
            or name.startswith("trace.") or "cpu_us" in name)


def run(workload, seed, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    try:
        parsed = json.loads(lines[-1])
    except (IndexError, ValueError):
        parsed = None
    return result.returncode, parsed


def compare(label, first, second, names):
    mismatched = [n for n in names if first["metrics"][n]["value"]
                  != second["metrics"][n]["value"]]
    if mismatched:
        print("FAIL %s: differs between two runs of seed %d: %s"
              % (label, SEED, ", ".join(mismatched)))
    return not mismatched


def main():
    ok = True
    for workload in WORKLOADS:
        runs = {trace: [run(workload, SEED, trace) for _ in range(2)]
                for trace in (0, 1)}
        if any(code != 0 or result is None or not result["correct"]
               for pair in runs.values() for code, result in pair):
            print("FAIL %s: a run with seed %d failed" % (workload, SEED))
            ok = False
            continue
        (_, a), (_, b) = runs[0]
        same = compare(workload + " end-to-end", a, b, VIRTUAL_END_TO_END)
        (_, a), (_, b) = runs[1]
        same &= compare(workload + " per-layer", a, b,
                        [n for n in a["metrics"] if not measured_on_cpu(n)])
        ok &= same
        code, held = run(workload, HELD_OUT_SEED, 0)
        if code != 0 or held is None or not held["correct"]:
            print("FAIL %s: held-out seed %d did not run clean"
                  % (workload, HELD_OUT_SEED))
            ok = False
            continue
        if same:
            print("ok   %s: seed %d reproduces; held-out seed %d runs clean"
                  % (workload, SEED, HELD_OUT_SEED))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
