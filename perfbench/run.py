#!/usr/bin/env python3
"""Build and run the parmem benchmark.

    python3 perfbench/run.py --workload paper_table1|stream_large|service_mix \
        --seed N --seconds S --trace 0|1 [--service-rate R]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that compiles the repository's libraries from
src/; it is built into .bench_build/ on first use (Release) and rebuilt
incrementally after that. Build output goes to .bench_build/build.log, so
stdout carries only the benchmark's own lines: a provenance line, a details
line and, last, the result object {"correct", "attempted", "failed",
"metrics"}. --selftest builds and runs the benchmark's own tests instead.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# One run must end within 180 s; the incremental build check takes a few.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
DEFAULT_SEED = 1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no parmem sources at {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["paper_table1", "stream_large", "service_mix"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--service-rate", type=float, default=50,
                    help="service_mix arrivals per second")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--service-rate", str(args.service_rate),
           "--work-dir", str(BUILD / "work")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
