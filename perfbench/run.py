#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload serve_grind --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --test               # the benchmark's own tests
  python3 perfbench/run.py --generate-expected  # rewrite data/expected.tsv

The first call configures and builds perfbench/ (which compiles the library
sources under src/) into .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's result object.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
EXPECTED = os.path.join(HERE, "data", "expected.tsv")


def build(target):
    """Configures once and builds `target`; False when either step fails."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr):
                return False
    return True


def git_sha():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return os.environ.get("PERFBENCH_GIT_SHA", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["cold_corpus", "serve_grind"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    parser.add_argument("--generate-expected", action="store_true",
                        help="solve every candidate and rewrite the answers")
    args = parser.parse_args()

    if args.test:
        if not build("perfbench_test"):
            return 3
        return subprocess.call([os.path.join(BUILD_DIR, "perfbench_test")])
    if not build("perfbench"):
        return 3
    binary = os.path.join(BUILD_DIR, "perfbench")
    if args.generate_expected:
        return subprocess.call([binary, "--generate-expected", EXPECTED])
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(OUT_DIR, exist_ok=True)
    # Relative to the working directory: the run's Unix socket lives here
    # and socket paths are limited to 107 bytes.
    out_dir = os.path.relpath(OUT_DIR)
    return subprocess.call([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--expected", EXPECTED, "--out-dir", out_dir, "--git-sha", git_sha(),
    ])


if __name__ == "__main__":
    sys.exit(main())
