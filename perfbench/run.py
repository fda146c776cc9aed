#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout's sources and
runs one workload at one seed.

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 15
                             --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); trace files go to a temporary directory
inside it that is removed afterwards. The last line of standard output is
the JSON result; everything human-readable goes to standard error.
`--selftest` builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn-dense", "citation-sparse", "read-mostly")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "simrank_service.cc")):
        sys.exit("perfbench: library sources not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        sys.exit(subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    trace_dir = None
    if args.trace:
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=build_dir())
        command += ["--trace", "1", "--trace-dir", trace_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
