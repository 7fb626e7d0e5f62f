#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid_dag --seed 1 --seconds 35 --trace 0

Workloads: grid_dag, data_staging, portal_sessions. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ledger (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every run is also appended, with
its provenance, to .bench_build/history.jsonl; the traced run's spans go
to .bench_build/spans/. The exit code is nonzero when the build fails or
an output check fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures once, then brings the program up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under src/; "
                         "run from the root of a full checkout\n")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            status = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if status.returncode:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                sys.exit(3)


def git(*args):
    try:
        result = subprocess.run(["git", "-C", ROOT] + list(args),
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(args, header):
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    fields = dict(part.split("=", 1) for part in header.split()[1:]
                  if "=" in part)
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "build_type": fields.get("build_type", BUILD_TYPE),
        "compiler": header.split("compiler=", 1)[1] if "compiler=" in header
        else "unknown",
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": args.seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    started = time.time()
    run = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stdout.write(run.stdout)
        sys.stderr.write("perfbench: the benchmark printed no result "
                         "(exit code %d)\n" % run.returncode)
        return run.returncode or 1

    for line in lines[:-1]:
        print(line)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args, lines[0] if lines else ""),
    }
    record.update(result)
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
