#!/usr/bin/env python3
"""Record or check the per-layer perfbench baseline, BENCH_layers.json.

    python3 bench/perfbench_layers.py record
    python3 bench/perfbench_layers.py check BASELINE WORKLOAD=REPORT...

`record` runs a 10 s traced perfbench (`perfbench/run.py --workload W
--trace 1 --seconds 10`) for each of paper_table1 and stream_large and
writes their per-layer metrics, with the build provenance (nproc among
it), to BENCH_layers.json at the root of the checkout. `check` compares
fresh traced reports, each the result object a traced run prints last:
each must be correct with no failed compile, and against the baseline

  * every count metric must equal the baseline's: a traced round repeats
    the same compiles, so the counts do not depend on the run's length;
  * every ms metric whose baseline is at least 1 ms must stay below 3x it:
    a collapse fails, a shared runner's jitter does not.

Ratios and sub-millisecond layers are not compared. Exits 1 on any failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_table1", "stream_large"]
RECORD_SECONDS = 10
MS_FLOOR = 1.0
MS_FACTOR = 3.0


def verified(workload, result):
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"{workload}: correct={result.get('correct')} "
                 f"failed={result.get('failed')}")
    print(f"{workload}: {result['attempted']} compiles, all correct")
    return result


def traced_run(workload, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--trace", "1", "--seconds", str(seconds)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    result = verified(workload, json.loads(out[-1]))
    return json.loads(out[0])["provenance"], result


def record():
    baseline = {"command": "python3 perfbench/run.py --workload W --trace 1 "
                           f"--seconds {RECORD_SECONDS}",
                "workloads": {}}
    for workload in WORKLOADS:
        provenance, result = traced_run(workload, RECORD_SECONDS)
        baseline.setdefault("nproc", provenance["nproc"])
        baseline.setdefault("provenance", provenance)
        baseline["workloads"][workload] = {
            "attempted": result["attempted"], "metrics": result["metrics"]}
    out = ROOT / "BENCH_layers.json"
    out.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline written to {out}")


def compare(workload, base, fresh):
    failures = []
    for name, b in sorted(base.items()):
        f = fresh.get(name)
        if f is None:
            failures.append(f"{workload} {name}: missing from the fresh run")
        elif b["unit"] == "count" and f["value"] != b["value"]:
            failures.append(f"{workload} {name}: {b['value']} -> {f['value']}")
        elif (b["unit"] == "ms" and b["value"] >= MS_FLOOR
              and f["value"] > MS_FACTOR * b["value"]):
            failures.append(f"{workload} {name}: {b['value']:.3f} ms -> "
                            f"{f['value']:.3f} ms (> {MS_FACTOR:g}x)")
    return failures


def check(args):
    baseline = json.loads(Path(args.baseline).read_text())["workloads"]
    failures = []
    for pair in args.reports:
        workload, _, path = pair.partition("=")
        if workload not in baseline:
            sys.exit(f"{workload}: not in {args.baseline}")
        fresh = verified(workload, json.loads(Path(path).read_text()))
        failures += compare(workload, baseline[workload]["metrics"],
                            fresh["metrics"])
    if failures:
        sys.exit("per-layer regressions:\n" + "\n".join(failures))
    print("per-layer metrics within tolerance of the committed baseline")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("record")
    chk = sub.add_parser("check")
    chk.add_argument("baseline")
    chk.add_argument("reports", nargs="+", metavar="WORKLOAD=REPORT")
    args = ap.parse_args()
    if args.mode == "record":
        record()
    else:
        check(args)


if __name__ == "__main__":
    main()
