#!/usr/bin/env python3
"""Build and run the kmatch benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Builds the benchmark crate (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default: .bench_build), prints a host fingerprint, runs the
workload in a child process of its own, and passes its output through. The
last line printed is the JSON result.

Exits 0 when every output check passed, 1 when a check failed (the result
line then says "correct": false), and another nonzero code without a result
line when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def fingerprint():
    return "host nproc={} cpu=\"{}\" kernel={} rustc=\"{}\"".format(
        os.cpu_count(), cpu_model(), platform.release(), rustc_version()
    )


def run_child(argv):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    try:
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark ran longer than {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return None, []
    return out.returncode, out.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    args = ap.parse_args()

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 3
    binary = os.path.join(target_dir(), "release", "kmatch-perfbench")
    argv = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
    ]
    if args.trace == "1":
        spans_dir = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        argv += ["--spans", os.path.join(spans_dir, "{}-seed{}.jsonl".format(args.workload, args.seed))]

    print(fingerprint(), flush=True)
    code, lines = run_child(argv)
    if code not in (0, 1) or not lines:
        print("error: benchmark exited with code {}".format(code), file=sys.stderr)
        return 4
    try:
        json.loads(lines[-1])
    except ValueError:
        print("error: benchmark printed no result line", file=sys.stderr)
        return 4
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
