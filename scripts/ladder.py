"""Per-check ladder: verify's checks on each spec, each spec in a fresh process.

    python scripts/ladder.py --label NAME [--src DIR] [SPEC ...]

A SPEC is SIZES/CHAR, such as 2,3,3,3,3/2, optionally followed by :A,B to run
only the checks A and B on it (every check by default).  The checks run in
ALL_CHECKS order with run_all's two base points and per-check seeds, so
their records are run_all's.  They are run one by one here, not through
run_all, because run_all reports neither each check's peak RSS nor which
check raised a MemoryError.

Each spec runs in one fresh subprocess that limits its own address space
(RLIMIT_AS, LIMIT bytes) and runs on one thread.  It records its peak RSS
(ru_maxrss) after importing the package, and after each check the record
(passed, count, detail), the seconds and the peak RSS so far.  A
MemoryError ends that spec's record with the check named; any other
failure of the subprocess ends it with its last line of stderr.  The
result is written to LADDER_<label>.json in the working directory.
--src is the directory holding the terwilliger package (this
tree's src/ by default), so one script measures any checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

LIMIT = 4 << 30
SPECS = ["5,5,7/2", "3,3,3,5/2", "2,2,2,2,2,2/3", "2,3,3,3,3/2", "2,2,2,2,2,2,2/3"]
ONE_THREAD = [
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
]


def _rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (ru_maxrss is in KB on Linux)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def parse_spec(text: str) -> tuple[tuple[int, ...], int, list[str] | None]:
    """SIZES/CHAR[:A,B] as (sizes, characteristic, check names or None for every check)."""
    spec, _, checks = text.partition(":")
    sizes, _, char = spec.partition("/")
    if not char:
        raise ValueError(f"{text!r} is not SIZES/CHAR[:CHECKS]")
    return tuple(int(s) for s in sizes.split(",")), int(char), checks.split(",") if checks else None


def run_one(sizes: list[int], characteristic: int, names: list[str] | None) -> dict:
    """The ladder record of one spec, measured in this process: call it in a fresh one."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    import numpy as np
    from terwilliger import verify
    from terwilliger.scheme import SchemeSpec

    record = {"numpy": np.__version__, "rss_after_import_mb": _rss_mb(), "checks": [], "error": None}
    known = [name for name, _ in verify.ALL_CHECKS]
    unknown = sorted(set(names or ()) - set(known))
    if unknown:
        record["error"] = f"unknown checks {unknown}"
        return record
    spec = SchemeSpec(sizes=tuple(sizes), characteristic=characteristic)
    base_points = verify.pick_base_points(spec, 2)
    for name, fn in verify.ALL_CHECKS:
        if names is not None and name not in names:
            continue
        rng = random.Random(f"{verify.DEFAULT_SEED}:{name}")
        started = time.perf_counter()
        try:
            passed, count, detail = fn(spec, base_points, rng, verify.DEFAULT_ORACLE_CAP)
        except MemoryError:
            record["error"] = f"MemoryError in {name} after {time.perf_counter() - started:.1f} s"
            return record
        record["checks"].append({
            "name": name,
            "passed": passed,
            "count": count,
            "detail": detail,
            "seconds": round(time.perf_counter() - started, 4),
            "rss_mb": _rss_mb(),
        })
    return record


def ladder(texts: list[str], src: Path) -> dict:
    """Run every spec in its own subprocess and collect the records."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", **{k: "1" for k in ONE_THREAD})
    specs = []
    for text in texts:
        sizes, characteristic, names = parse_spec(text)
        job = json.dumps([sizes, characteristic, names])
        started = time.perf_counter()
        done = subprocess.run([sys.executable, __file__, "--one", job], env=env, capture_output=True, text=True)
        if done.returncode == 0:
            record = json.loads(done.stdout.splitlines()[-1])
        else:
            last = done.stderr.strip().splitlines()[-1:] or ["no output"]
            record = {"checks": [], "error": f"exit {done.returncode}: {last[0]}"}
        record = {"spec": text, "seconds": round(time.perf_counter() - started, 2), **record}
        specs.append(record)
        print(f"{text}: {record['seconds']} s, {record['error'] or 'finished'}", file=sys.stderr)
    return {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "limit_bytes": LIMIT,
        "specs": specs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="*", default=SPECS, help=f"SIZES/CHAR[:CHECKS] (default {' '.join(SPECS)})")
    parser.add_argument("--label", help="writes LADDER_<label>.json")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_one(*json.loads(args.one))))
        return 0
    if not args.label:
        parser.error("--label is required")
    try:
        for text in args.specs:
            parse_spec(text)
    except ValueError as exc:
        parser.error(str(exc))
    result = ladder(args.specs, args.src.resolve())
    path = Path(f"LADDER_{args.label}.json")
    path.write_text(json.dumps({"label": args.label, **result}, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
