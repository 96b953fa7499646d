#!/usr/bin/env python3
"""Build and run the lattice-engines benchmark.

    python3 perfbench/run.py --workload bulk2d --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
repository's libraries and the perfbench binary under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The last line of standard output is the run's
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk2d", "bulk3d", "serve_resident", "serve_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir(), "work")]
    child = subprocess.Popen(cmd, cwd=ROOT)
    stopped = []

    def stop(signum, _frame):
        # Pass the stop on; the wait below returns once the child exits.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())
