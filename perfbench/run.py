#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result JSON as the last line.

    python3 perfbench/run.py --workload upload|bob-queries|shared-session \
        --seed N --seconds S --trace 0|1

Builds the library and the harness from this checkout's sources (CMake,
into a directory of $CARGO_TARGET_DIR or .bench_build named after the
checkout's path), then runs the harness in one process whose worker pool
is capped at min(nproc, 4) threads. A failed build, a failed output check
or a malformed result exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("upload", "bob-queries", "shared-session")
# The first run of a checkout builds and must end within 900 s; every
# later run within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    """The build directory of this checkout. It is named after the
    checkout's absolute path, so checkouts that share $CARGO_TARGET_DIR
    never build from each other's sources."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def hail_threads():
    return max(1, min(os.cpu_count() or 1, 4))


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compilers too) and waits for it. Returns (returncode,
    stdout), returncode None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        code, _ = run_group(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    if code is None:
        print(f"perfbench: {' '.join(cmd)}: timed out", file=sys.stderr)
    return code == 0


def build():
    """Builds the harness; returns the build directory or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ beside perfbench/ to build", file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_logged(["cmake", "--build", out, "-j", str(hail_threads())],
                      BUILD_TIMEOUT_S):
        return None
    return out


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"] is True
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and result["metrics"])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    built = build()
    if built is None:
        return 1
    trace_dir = os.path.join(os.path.dirname(built), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(built, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    env = dict(os.environ, HAIL_THREADS=str(hail_threads()))
    code, out = run_group(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if code is None:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not valid_result(lines[-1]):
        print(f"perfbench: {args.workload} failed (exit {code})",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
