#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench (Release) under .bench_build/ at the repository root, runs
it, and passes its output through: the last line of standard output is the
result JSON.  Build output goes to standard error.  Exits non-zero without a
result when the build or the run fails, or when the result does not carry
exactly the metrics BENCHMARK.json lists for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("ingest_hot", "ingest_wide", "query_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, args.workload + ".spans.tsv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.decode().rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        fail("the benchmark exited with code %d; last line: %s"
             % (run.returncode, lines[-1]))
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected_metrics(args.trace):
        fail("the result's metrics differ from BENCHMARK.json")
    sys.stdout.write(lines[-1] + "\n")


if __name__ == "__main__":
    main()
