"""Spans and counts recorded from outside the package, by rebinding its functions.

``Tracer.install`` replaces each traced function with a wrapper wherever the
package holds a reference to it: in the module that defines it, in every
module that imported the name, in the class for ``Element.mul`` and in
``verify.ALL_CHECKS`` for the checks.  ``Tracer.uninstall`` puts the
originals back, so untraced passes run the package unmodified.

Functions called millions of times (``oracle.relation``, ``mul_triples``)
are only counted: a span per call would cost more than the call.  Their
time, and the time of the count hooks, lands in the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scheme", "algebra", "center", "radical", "quotient", "oracle", "verify", "cli")

# Functions that get a span: module -> attribute names.
SPANNED = {
    "scheme": ["layer"],
    "algebra": ["basis_triples", "Element.mul"],
    "center": ["center_summary", "is_central"],
    "radical": ["radical_triples", "radical_summary"],
    "quotient": ["wedderburn_blocks", "wedderburn_summary", "semisimple_rep"],
    "oracle": [
        "adjacency_matrix",
        "dual_idempotent",
        "identity_matrix",
        "realize_triple",
        "realize_raw_triple",
        "realize",
        "realize_raw",
        "span_rank",
        "mat_mul",
        "annihilator_dim",
        "triple_intersection_count",
    ],
    "verify": ["run_all"],
    "cli": ["main", "build_report", "render_report_text"],
}

# Functions that are only counted.
COUNTED = {
    "scheme": ["intersection_number"],
    "algebra": ["mul_triples", "to_raw", "from_raw"],
    "radical": ["in_radical"],
    "oracle": ["relation"],
}

# Both ways the CLI renders a report are reported as one span.
RENAMED = {"cli.render_report_text": "cli.render"}


def _count_triples(counts, args, result):
    counts["algebra.triples_enumerated"] += len(result)


def _count_mul(counts, args, result):
    x, y = args
    lefts = Counter(t[0] for t in y.terms)
    counts["algebra.mul.pairs_tried"] += len(x.terms) * len(y.terms)
    counts["algebra.mul.pairs_matching"] += sum(lefts[t[2]] for t in x.terms)
    counts["algebra.mul.terms_out"] += len(result.terms)


def _count_mat_mul(counts, args, result):
    _, a, b = args
    counts["oracle.mat_mul.ops_computed"] += a.shape[0] * a.shape[1] * b.shape[1]
    counts["oracle.mat_mul.object_calls"] += a.dtype == object or b.dtype == object


def _count_cells(counts, args, result):
    counts["oracle.cells_filled"] += result.size


HOOKS = {
    "algebra.basis_triples": _count_triples,
    "algebra.Element.mul": _count_mul,
    "oracle.mat_mul": _count_mat_mul,
    "oracle.adjacency_matrix": _count_cells,
    "oracle.dual_idempotent": _count_cells,
    "oracle.identity_matrix": _count_cells,
}


class Tracer:
    """In-memory spans ``(id, parent, item, name, start, end)`` and named counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._ids = itertools.count()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._checks: list | None = None

    def _spanned(self, name, fn, hook=None):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, tracer.item, name, start, end))
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "terwilliger"}
        modules = list(mods.values())
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, attrs in table.items():
                mod = mods[f"terwilliger.{layer}"]
                for attr in attrs:
                    name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    args = (HOOKS[name],) if name in HOOKS else ()
                    if attr == "Element.mul":
                        cls = mod.Element
                        self._set(cls, "mul", make(name, cls.__dict__["mul"], *args))
                    else:
                        original = getattr(mod, attr)
                        self._rebind(modules, original, make(name, original, *args))
        cli = mods["terwilliger.cli"]
        shim = types.SimpleNamespace(**vars(json))
        shim.dumps = self._spanned("cli.render", json.dumps)
        self._set(cli, "json", shim)
        checks = mods["terwilliger.verify"].ALL_CHECKS
        self._checks = list(checks)
        checks[:] = [(n, self._spanned(f"verify.{n}", fn, _identities(n))) for n, fn in checks]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        if self._checks is not None:
            sys.modules["terwilliger.verify"].ALL_CHECKS[:] = self._checks
            self._checks = None


def _identities(check):
    def hook(counts, args, result):
        counts[f"verify.{check}.identities"] += result[1]

    return hook


def summarize(spans) -> tuple[Counter, dict, dict]:
    """Calls, self time and total time per span name.

    Spans nest without overlap (one thread), so the time a span's children
    cover is the sum of their durations.
    """
    child: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end in spans:
        child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child[sid]
    return calls, self_s, total_s


def layer_table(self_s: dict[str, float]) -> dict[str, float]:
    """Self time summed per package module."""
    table = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_s.items():
        table[name.split(".")[0]] += seconds
    return table
