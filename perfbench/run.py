"""Benchmark of the terwilliger package: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-ladder --seed 1 --seconds 24 --trace 0

The workload runs in a fresh child process (``worker.py``) with ``src`` on
its path and the BLAS and OpenMP thread counts set to 1.  With ``--trace 0``
the last line of stdout carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Earlier lines are a readable
summary, and the full result (metadata, samples, per-item times, the
per-layer table) goes to ``perfbench/out/``.

Nothing on the machine is changed to steady the numbers: no CPU governor,
pinning, cache dropping or priority.  The host's speed drift is handled by
timing each item against a frozen copy of the seed package right next to
it (see worker.py) and by medians over passes and set-up repetitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PAIRS = 3  # fresh processes timing set-up, each next to one timing the seed copy's
# The seed copy's set-up seconds per workload, the median of the ten-seed proof at the
# seed commit on a 2-vCPU host.  It only sets the scale of setup_s, see setup_seconds.
SEED_SETUP_S = {"report-ladder": 0.165, "verify-modp": 0.535, "verify-q": 0.401, "products": 0.259}
RUN_TIMEOUT_S = 170  # all workers of a run together; the whole run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LIMITS = (
    "No machine setting was changed: no CPU governor, pinning, priority, cgroup or cache "
    "control. Raw seconds follow the host's speed drift; the gated times are ratios to the "
    "seed copy timed next to them, and setup_s is such a ratio scaled to seconds."
)


class BenchError(Exception):
    """The run could not produce a result."""


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured even where git is absent."""
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/terwilliger/*.py")):
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workers did not finish within {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setups(args: argparse.Namespace, deadline: float, pairs: int) -> tuple[list, list]:
    """Set-up of the package and of the seed copy, in fresh processes, alternating which first."""
    mine, seed_copy = [], []
    for k in range(pairs):
        for copy in (False, True) if k % 2 == 0 else (True, False):
            extra = ("--mode", "setup", "--seed-copy") if copy else ("--mode", "setup")
            (seed_copy if copy else mine).append(run_worker(args, deadline, *extra))
    return mine, seed_copy


def setup_seconds(workload: str, mine: list[float], seed_copy: list[float]) -> float:
    """Set-up time at the host speed of the seed point.

    Raw set-up seconds move with the host's drift, by up to 1.7x between runs
    here, because no other work can be timed next to them; the ratio to the
    seed copy's set-up, timed in the neighbouring process, does not.  Scaled
    by the seed copy's set-up at the seed point, it reads as seconds.
    """
    return median(m / s for m, s in zip(mine, seed_copy)) * SEED_SETUP_S[workload]


def end_to_end(workload: str, run: dict, rss: dict, mine: list, seed_copy: list) -> tuple[dict, dict]:
    passes = run["passes"]
    values = {
        "wall_vs_seed": median(p["wall_s"] / p["ref_wall_s"] for p in passes),
        "largest_item_vs_seed": median(
            p["largest_item_s"] / p["ref_largest_item_s"] for p in passes
        ),
        "peak_rss_mb": rss["peak_rss_mb"],
        "ok_frac": 1 - run["failed"] / run["attempted"],
        "setup_s": setup_seconds(workload, mine, seed_copy),
        # raw seconds, in the result file only: they follow the host's drift
        "setup_raw_s": median(mine),
        "seed_setup_raw_s": median(seed_copy),
        "wall_s": median(p["wall_s"] for p in passes),
        "largest_item_s": median(p["largest_item_s"] for p in passes),
        "seed_wall_s": median(p["ref_wall_s"] for p in passes),
        "seed_largest_item_s": median(p["ref_largest_item_s"] for p in passes),
    }
    samples = {"default": len(passes), "setup_s": len(mine), "peak_rss_mb": 1}
    samples["ok_frac"] = run["attempted"]
    return values, samples


def per_layer(run: dict) -> tuple[dict, dict]:
    traced = run["traced_passes"]
    names = set().union(*(p["metrics"] for p in traced))
    values = {n: median(p["metrics"].get(n, 0) for p in traced) for n in names}
    base = median(p["wall_s"] for p in run["passes"])
    wall = median(p["wall_s"] for p in traced)
    values.update({
        "trace.base_wall_s": base,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base,
        # each traced pass against the untraced pass just before it
        "trace.overhead_frac": median(
            t["wall_s"] / u["wall_s"] - 1 for u, t in zip(run["passes"], traced)
        ),
    })
    samples = {"default": len(traced), "trace.base_wall_s": len(run["passes"])}
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one pass over the smallest item, for the smoke test"
    )
    args = parser.parse_args()

    if not (os.path.isfile("BENCHMARK.json") and os.path.isfile("src/terwilliger/__init__.py")):
        print("error: run from the root of a checkout holding src/terwilliger", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        run = run_worker(args, deadline, "--spans", spans)
        if args.trace:
            values, samples = per_layer(run)
        else:
            rss = run_worker(args, deadline, "--mode", "rss")
            mine, seed_copy = time_setups(args, deadline, 1 if args.smoke else SETUP_PAIRS)
            for other in [rss, *mine, *seed_copy]:
                run["attempted"] += other["attempted"]
                run["failed"] += other["failed"]
                run["failures"] += other["failures"]
            mine = [w["setup_s"] for w in mine]
            seed_copy = [w["setup_s"] for w in seed_copy]
            values, samples = end_to_end(args.workload, run, rss, mine, seed_copy)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": run["python"],
        "numpy": run["numpy"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "thread_env": dict.fromkeys(THREAD_VARS, "1"),
        "limits": LIMITS,
        "samples": {name: samples.get(name, samples["default"]) for name in metrics},
        "failures": run["failures"],
    }
    correct = run["failed"] == 0
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}

    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        record = {"meta": meta, "result": result, "all_values": values, "run": run}
        if not args.trace:
            record["setup_samples"] = {"package": mine, "seed_copy": seed_copy}
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {os.path.relpath(out_path)}")
    print("# " + " ".join(f"{k}={meta[k]}" for k in ("nproc", "python", "numpy", "git_sha")))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:<14s} n={meta['samples'][name]}")
    for name in ("wall_s", "largest_item_s", "setup_raw_s", "seed_wall_s", "seed_largest_item_s",
                 "seed_setup_raw_s"):
        if name in values:
            print(f"# raw {name:40s} {values[name]:>16.6g} s")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
