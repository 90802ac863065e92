#!/usr/bin/env python3
"""Frame benchmark entry point.

Builds the benchmark (framebench/CMakeLists.txt, which compiles the
program's own src/) with CMake, then runs one workload and passes its
output through; the last stdout line is the JSON result.

    python3 framebench/run.py --workload frame416 --seed 1 --seconds 10 --trace 0

Run from the repository root. Build products, binparams, traces and run
records go under $CARGO_TARGET_DIR (default .bench_build).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("frame416", "serve4_128", "demo64_float")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures once and builds the framebench target; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "framebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "framebench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "framebench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"framebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out_root, "out"), "--git-sha", git_sha()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("framebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
