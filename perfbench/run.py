#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload in its own process.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-churn --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

The last line of standard output is the run's JSON result; the build's
output goes to standard error.  Exits non-zero, without a result, when the
program cannot be built or a run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve-churn", "serve-mobile", "sweep-paper", "sweep-scale"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return value


def build():
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run(workload, args):
    command = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", "perfbench",
    ]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=non_negative, default=42)
    parser.add_argument("--seconds", type=positive, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        print("run.py: could not build perfbench/main.exe", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
