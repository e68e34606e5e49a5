#!/usr/bin/env python3
"""Builds and runs the lshclust benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload fit_categorical --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark under .bench_build/perfbench (minutes); later
runs only check that the build is current. The last line of standard
output is the JSON result line. Exits non-zero without a result line when
the build or the run fails.

An end-to-end run (--trace 0) splits --seconds over PROCESSES fresh
processes run one after another and reports each metric's median over
them. Process i gets --part=i, so each measures its own dataset drawn
from --seed, and the run's medians describe the workload rather than one
draw of its data. On a shared VM one process's timings drift together by
up to ±15% (CPU and memory placement), so a median over several
processes is also steadier than one long process. Each process is given
an equal share of the time the run has left, so one that ran over or
under its share evens out over the rest. A traced run is one process,
part 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fit_categorical", "fit_numeric", "serve_live")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; it measures --seconds plus set-up.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
PROCESSES = 4


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no CMakeLists.txt at %s; the benchmark builds the "
                 "library from the repository's sources" % ROOT)
    commands = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                     "--target"] + list(targets))
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(command))


def parse_result(line):
    """The result line as a dict, or None when it breaks the schema."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["correct"], bool):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return None
    for metric in result["metrics"].values():
        if (not isinstance(metric, dict) or set(metric) != {"value", "unit"}
                or not isinstance(metric["value"], (int, float))
                or isinstance(metric["value"], bool)):
            return None
    return result


def combine(results):
    """One result from several processes' results of the same run: sums
    of the operation counts and each metric's median."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def run_process(args, part, seconds, workdir):
    """Runs the benchmark binary once; returns its result, or exits."""
    command = [os.path.join(BUILD, "perfbench"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--part=%d" % part, "--seconds=%r" % seconds,
               "--trace=%d" % args.trace,
               "--workdir=" + workdir]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the run took longer than %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    result = parse_result(lines[-1]) if lines else None
    if run.returncode != 0 or result is None:
        sys.stderr.write(run.stdout)
        sys.exit("run.py: the run failed (exit %d) or printed no valid "
                 "result line" % run.returncode)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; for the benchmark's own tests")
    args = parser.parse_args(argv)

    build(["perfbench"])
    workdir = os.path.join(BUILD, "work", args.workload)
    processes = 1 if args.trace else PROCESSES
    end = time.monotonic() + args.seconds
    results = []
    for part in range(processes):
        share = max(0.1, end - time.monotonic()) / (processes - part)
        results.append(run_process(args, part, share, workdir))
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
