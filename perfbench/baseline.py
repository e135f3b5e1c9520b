"""Run the benchmark over several seeds and summarise it, one JSON file out.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads scale certify --seeds 5 --first-seed 100

For each workload: ``--seeds`` untraced runs with seeds first-seed, first-seed+1,
..., then one traced run on the first seed.  Each end-to-end metric is
summarised by its median, quartiles (``statistics.quantiles(n=4)``) and spread
(quartile distance over median), which is what a metric's bound in
BENCHMARK.json is compared against.  Runs are sequential, never concurrent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    env = next(line["environment"] for line in lines if "environment" in line)
    return lines[-1], env


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    report = {"run_seconds": BENCH["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, env = one_run(workload, seed, 0)
            results.append(result)
            report["environment"] = env
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        row = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results])
                for m in BENCH["end_to_end"]
            },
        }
        traced, _ = one_run(workload, args.first_seed, 1)
        row["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        row["attempted"] += traced["attempted"]
        row["failed"] += traced["failed"]
        report["workloads"][workload] = row
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
