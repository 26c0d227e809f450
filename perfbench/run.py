#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload point_email|scan_url|serve_drift|all
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is built from the
checkout's own sources into .bench_build/ (CMake, RelWithDebInfo), then
the perfbench binary runs the workload. Its table goes to stdout, and the
last stdout line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists. Detail files (sample counts, host
and build fingerprint) and traced runs' span files go to
.bench_build/out/. Exits non-zero, without a result line, when the
sources are missing, the build fails, or the run fails or times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("point_email", "scan_url", "serve_drift")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s in %s: the benchmark builds the checkout's sources"
                 % (needed, ROOT))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if (not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs]):
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result line" % workload)
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail("metrics of %s differ from BENCHMARK.json: %s"
             % (workload, sorted(set(want) ^ set(result["metrics"]))))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")

    build()
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = [run(w, args.seed, args.seconds, args.trace) for w in names]
    # Each workload's table, then its result line; a single workload's
    # result line is the last line printed.
    for lines in outputs:
        sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
