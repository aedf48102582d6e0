#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the fastdiag library and the fdbench
executable from source (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
runs one workload, and relays its output.  The last stdout line is
the result object: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_sweep", "diagd_classify")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return completed.returncode == 0


def build(build_dir):
    """Configures (once) and builds fdbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.cpp")):
        fail("fastdiag sources not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not run_logged(configure, BUILD_TIMEOUT_S):
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not run_logged(configure, BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      BUILD_TIMEOUT_S):
        fail("build failed")
    binary = os.path.join(build_dir, "fdbench")
    if not os.path.isfile(binary):
        fail("build produced no fdbench binary")
    return binary


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", commit_id(),
               "--trace-out", os.path.join(
                   trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   stderr=sys.stderr, text=True,
                                   timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("fdbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = completed.stdout.rstrip("\n").split("\n")
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        fail("fdbench exited with code %d" % completed.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("fdbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
