#!/usr/bin/env python3
"""Builds and runs the real-process ReTwis benchmark.

Usage (from the repository root):

    python3 lsbench/run.py --workload retwis_mix --seed 1 --seconds 10 --trace 0

Builds lambdastore-server and the lsbench program from this checkout's
sources into $CARGO_TARGET_DIR (default .bench_build) with CMake, then
runs lsbench. Build output goes to stderr; the report goes to
stdout, whose last line is the JSON result. `--self-test` builds and runs
the benchmark's own unit tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(out, targets):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("lsbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = os.path.join(build_dir(), "lsbench")
    if args.self_test:
        build(out, ["lsbench_test"])
        return subprocess.run([os.path.join(out, "lsbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    build(out, ["lsbench", "lambdastore_server"])
    data = os.path.join(build_dir(), "lsbench-data")
    os.makedirs(data, exist_ok=True)
    cmd = [os.path.join(out, "lsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(out, "tools", "lambdastore-server"),
           "--data-dir", data]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
