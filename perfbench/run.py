#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_predict --seed 1 \
        --seconds 15 --trace 0

The binary is compiled with CMake from perfbench/CMakeLists.txt, which
builds the library sources under src/ in Release mode, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). A line
describing the host is printed first; the binary's result is the last
line of standard output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold_predict", "churn_periphery", "cached_whatif")
BUILD_TYPE = "Release"
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_files():
    src = os.path.join(ROOT, "src")
    files = []
    for directory, _, names in os.walk(src):
        files.extend(os.path.join(directory, n) for n in names
                     if n.endswith((".cc", ".h")))
    return sorted(files)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_info(files):
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "sanitizer": "none",
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    files = source_files()
    if not files or not os.path.isfile(
            os.path.join(ROOT, "perfbench", "CMakeLists.txt")):
        fail("no library sources under src/: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    out_dir = os.path.relpath(build_dir, ROOT)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error, 1)

    print(json.dumps({"host": host_info(files)}), flush=True)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--out-dir", out_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, run.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unreadable result line: %r" % lines[-1], 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: %r" % lines[-1], 1)
    sys.stdout.write(run.stdout if run.stdout.endswith("\n")
                     else run.stdout + "\n")


if __name__ == "__main__":
    main()
