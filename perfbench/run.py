#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload lr_sync --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally), scratch files to
.bench_build/perfbench-work. Build output and the driver's progress go to
stderr; the last stdout line is the driver's result object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lr_sync", "lr_async", "mlp_hogbatch", "cluster_ckpt")


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_build")
    try:
        driver = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [driver,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ref-dir", os.path.join(HERE, "reference"),
           "--work-dir", os.path.join(out_dir, "perfbench-work")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
