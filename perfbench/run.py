#!/usr/bin/env python3
"""Build and run the pipeline benchmark (pdc_perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload solve-mid --seed 1 --seconds 20 --trace 0

It configures perfbench/CMakeLists.txt (which builds the repository's
libraries as a subdirectory) into the build directory named by
CARGO_TARGET_DIR, or .bench_build, builds the benchmark binary, runs it
and relays its output. The last line of standard output is the JSON
result. Build output goes to standard error. It exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-mid", "solve-dense", "service-churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    cmd = ["cmake", "--build", build_dir, "--target", "pdc_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "pdc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # OpenMP workers spin between parallel regions instead of sleeping. On
    # a shared virtual machine a sleeping vCPU's wake-up shows up as steal
    # time that stalls every barrier of the solver's team; spinning keeps
    # solve times within a few percent where sleeping let them swing 40%.
    env = dict(os.environ, OMP_WAIT_POLICY="active")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
