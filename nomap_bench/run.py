#!/usr/bin/env python3
"""Build nomap_bench from this checkout's sources and run one workload.

    python3 nomap_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build is the root CMake project with
nomap_bench.cmake as its project hook, in $CARGO_TARGET_DIR (default
.bench_build) under nomap_bench/; it is configured on first use and
brought up to date on every run, and its output goes to stderr. The
benchmark's own output, whose last line is the JSON result, goes to
stdout unchanged. Result files and traces land in <build>/out/. Exits
nonzero, printing nothing on stdout, when the repository's sources are
missing or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK = os.path.join(ROOT, "nomap_bench", "nomap_bench.cmake")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DCMAKE_PROJECT_nomap_INCLUDE={HOOK}"])
    steps.append(["cmake", "--build", build_dir, "-j4",
                  "--target", "nomap_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} not found next to nomap_bench/")
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "nomap_bench")
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build: serialize it.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(build_dir):
            return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "nomap_bench", "nomap_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out-dir={out_dir}"]
    if args.trace:
        cmd.append("--traced")
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
