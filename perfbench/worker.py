"""One benchmark process: set up a workload, run timed passes over it, check every output.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
as its last line.  Not meant to be run by hand.

Untraced runs time every item twice, against the package under test and
against the frozen seed copy in ``seedref/``, alternating which goes first.
The host's speed drifts by tens of percent over seconds to minutes, and
both sides of a pair see the same drift, so their ratio is what stays
steady from run to run.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time starts before the package is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEEDREF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seedref")
PACKAGE, SEED_PACKAGE = "terwilliger", "terwilliger_seed"

# Below three passes a median rests on too little.
MIN_PASSES = 3


class Checker:
    """Compares item outputs with the goldens and counts attempts and failures."""

    def __init__(self, workload: str) -> None:
        self.goldens = workloads.load_goldens().get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def run(self, item) -> float:
        """Run one item, check its output outside the timed region, return its seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a crashing item is a failed item, not a crashed run
            seconds = perf_counter() - start
            self._fail(f"{item.key}: raised {exc!r}")
            return seconds
        seconds = perf_counter() - start
        if isinstance(out, workloads.CliOutput):
            self.output_bytes += len(out.stdout.encode())
        got = item.digest(out)
        want = self.goldens.get(item.key)
        if got != want:
            self._fail(f"{item.key}: got {got[:120]!r}, golden {str(want)[:120]!r}")
        return seconds

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def time_reference(item) -> float:
    start = perf_counter()
    item.run()
    return perf_counter() - start


def run_pass(workload, checker: Checker, reference=None, tracer=None, flip=0) -> dict:
    """One pass; with ``reference``, each item is paired with its seed-copy twin.

    Which twin runs first alternates from item to item and, through
    ``flip``, from pass to pass, so that going first or second, which can
    matter, evens out.
    """
    gc.collect()
    if tracer is not None:
        first_span, counts, output_bytes = len(tracer.spans), tracer.counts.copy(), checker.output_bytes
    times, ref_times = {}, {}
    for k, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item += 1
        if reference is None:
            times[item.key] = checker.run(item)
            continue
        twin = reference.items[k]
        if (k + flip) % 2:
            ref_times[twin.key] = time_reference(twin)
            times[item.key] = checker.run(item)
        else:
            times[item.key] = checker.run(item)
            ref_times[twin.key] = time_reference(twin)
    result = {"wall_s": sum(times.values()), "largest_item_s": times[workload.largest]}
    if reference is not None:
        result["ref_wall_s"] = sum(ref_times.values())
        result["ref_largest_item_s"] = ref_times[workload.largest]
    result["item_s"] = times
    if tracer is not None:
        output_bytes = checker.output_bytes - output_bytes
        result["metrics"] = traced_metrics(tracer, first_span, counts, output_bytes)
    return result


def run_passes(workload, checker, budget, started, min_passes, **kw) -> list[dict]:
    """Passes until the next one would end more than half a pass past ``budget`` seconds.

    ``min_passes`` of 0 means exactly one pass, for the smoke test.
    """
    passes = [run_pass(workload, checker, **kw)]
    while len(passes) < min_passes or (
        min_passes and perf_counter() - started + pass_seconds(passes[-1]) / 2 < budget
    ):
        passes.append(run_pass(workload, checker, flip=len(passes) % 2, **kw))
    return passes


def pass_seconds(one: dict) -> float:
    return one["wall_s"] + one.get("ref_wall_s", 0.0)


def traced_metrics(tracer: tracing.Tracer, first_span: int, counts_before, output_bytes) -> dict:
    """Per-layer metrics of the traced pass whose spans start at ``first_span``."""
    calls, self_s, total_s = tracing.summarize(tracer.spans[first_span:])
    counts = tracer.counts - counts_before
    m = {f"layer.{k}.self_s": v for k, v in tracing.layer_table(self_s).items()}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m.update(counts)
    for check, _ in sys.modules["terwilliger.verify"].ALL_CHECKS:
        m[f"verify.{check}.s"] = total_s.get(f"verify.{check}", 0.0)
    tried = counts["algebra.mul.pairs_tried"]
    m["algebra.mul.useful_ratio"] = counts["algebra.mul.pairs_matching"] / tried if tried else 0.0
    mm = calls["oracle.mat_mul"]
    m["oracle.mat_mul.object_frac"] = counts["oracle.mat_mul.object_calls"] / mm if mm else 0.0
    m["cli.output_bytes"] = output_bytes
    return m


def write_spans(path: str, tracer: tracing.Tracer) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--mode",
        choices=("passes", "setup", "rss"),
        default="passes",
        help="setup: time set-up only; rss: one pass of the package alone, for peak memory",
    )
    parser.add_argument(
        "--seed-copy", action="store_true", help="with --mode setup: set up the seed copy instead"
    )
    parser.add_argument("--spans", help="file for the spans of the traced passes")
    args = parser.parse_args()

    sys.path.insert(0, SEEDREF)
    pkg = importlib.import_module(SEED_PACKAGE if args.seed_copy else PACKAGE)
    workload = workloads.build(args.workload, args.seed, pkg, args.smoke)
    checker = Checker(args.workload)
    checker.run(workload.warmup)
    setup_s = perf_counter() - _T0
    gc.freeze()  # the inputs live all run; keep them out of the package's collections
    result = {"setup_s": setup_s, "numpy": numpy.__version__, "python": sys.version.split()[0]}

    if args.mode == "rss":
        result["passes"] = [run_pass(workload, checker)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "passes" and not args.trace:
        seed_pkg = importlib.import_module(SEED_PACKAGE)
        reference = workloads.build(args.workload, args.seed, seed_pkg, args.smoke)
        time_reference(reference.warmup)
        gc.freeze()
        min_passes = 0 if args.smoke else MIN_PASSES
        started = perf_counter()
        result["passes"] = run_passes(
            workload, checker, args.seconds, started, min_passes, reference=reference
        )
    elif args.mode == "passes":
        # Untraced and traced passes alternate, so the host's drift hits both
        # alike; their difference is the tracing overhead.
        tracer = tracing.Tracer()
        untraced, traced = [], []
        result.update(passes=untraced, traced_passes=traced)
        started = perf_counter()
        while not traced or not args.smoke and (
            perf_counter() - started + (untraced[-1]["wall_s"] + traced[-1]["wall_s"]) / 2
            < args.seconds
        ):
            untraced.append(run_pass(workload, checker))
            tracer.install()
            try:
                traced.append(run_pass(workload, checker, tracer=tracer))
            finally:
                tracer.uninstall()
        if args.spans:
            write_spans(args.spans, tracer)

    if args.mode == "passes":
        attempted, failed = workload.crosscheck()
        checker.attempted += attempted
        checker.failed += failed
        if failed:
            checker.failures.append(f"{failed} of {attempted} products disagree with the oracle")
        result["crosschecks"] = attempted
    result.update(attempted=checker.attempted, failed=checker.failed, failures=checker.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
