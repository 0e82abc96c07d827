"""Run the benchmark over several seeds and report each metric's median and quartile spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads report-ladder,products]
                                [--trace 0] [--out perfbench/results/BENCH_<label>.json]

Runs happen one after another, each through ``run.py`` exactly as a single
run would.  The spread of a metric is (Q3 - Q1) / median over the seeds,
with quartiles from ``statistics.quantiles(values, n=4)``; it is printed
next to a third of the metric's bound from BENCHMARK.json, the target for
a steady benchmark.  ``--out`` writes medians, quartiles and every run's
values, so results can be compared across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: outputs are not correct", file=sys.stderr)
            runs.append({"seed": seed, **result})
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "unit": runs[0]["metrics"][metric]["unit"], "values": values}
            bound = bounds.get(metric) if not args.trace else None
            mark = ""
            if bound is not None:
                ok = metric == "setup_s" or spread < bound / 3
                steady &= ok
                mark = f"target<{bound / 3:.3f} {'ok' if ok else 'WIDE'}"
            print(f"{workload:14s} {metric:44s} median={med:<12.6g} spread={spread:.3f} {mark}")
        summary["workloads"][workload] = {
            "metrics": rows,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    raise SystemExit(main())
