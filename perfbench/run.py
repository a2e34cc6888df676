#!/usr/bin/env python3
"""Build and run the DISC saving benchmark.

    python3 perfbench/run.py --workload letter|flight|restaurant \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds the library from
src/ plus the benchmark binary (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the binary with
the same arguments. The binary's stdout is passed through unchanged: its
last line is the JSON result. Per-run artifacts (metadata, per-round raw
values, the traced run's span log) land in <build dir>/perfbench-out/.

Exits nonzero without printing a result when the build fails, and with the
binary's exit code otherwise (nonzero when a correctness check failed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "disc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        return 2
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "disc_perfbench")
    proc = subprocess.run([binary, *sys.argv[1:], "--out", out_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
