"""The benchmark's workloads: the items of one pass, built from a seed, and their checks.

Every workload is a closed loop with one caller: the next item starts when
the previous one returns.  Items reach the package only through its public
entry points, ``terwilliger.cli.main(argv)`` with stdout captured and
``Element`` arithmetic.  Each item's output is reduced to a digest and
compared with the golden recorded from the seed commit in ``goldens.json``.

``build`` takes the package to drive as a module, so the same items can be
built against the frozen seed copy in ``seedref/`` as a speed reference.
This module imports neither, so that set-up timing can include the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Callable, NamedTuple

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# report: a ladder over n = 2..7 at characteristics 0, 2 and 3, every rung
# as JSON and the rungs with n <= TEXT_UP_TO_N also as text; text adds little on
# a large rung (JSON holds the same data and more) but would nearly halve
# the passes a run holds.  The top rung, (3,)*6 at char 2, has the largest
# radical listing (about 1.1 MB of JSON).  (3,)*7 is left out: its report
# alone takes about 2 s.
REPORT_LADDER = [
    ((2, 3), 2),
    ((3, 3, 3), 3),
    ((2, 3, 4, 5), 2),
    ((3,) * 5, 2),
    ((2, 2, 3, 3, 4, 5), 3),
    ((2,) * 7, 0),
    ((3,) * 6, 2),
]
TEXT_UP_TO_N = 5

# verify: the same three sizes at a prime and at characteristic 0, so a
# change that helps one oracle path and hurts the other shows as a split
# between the two workloads.  Every prime-characteristic spec has a nonzero
# radical.  Items are kept under about a second: each is timed against its
# seed-copy twin, and short pairs see less of the host's drift between the
# two halves.  (2,2,3)/2 takes about 2.4 s, (2,2,3)/0 about 3 s.
VERIFY_MODP = [((2, 3), 2), ((2, 4), 3), ((3, 3), 2)]
VERIFY_Q = [((2, 3), 0), ((2, 4), 0), ((3, 3), 0)]

# products: (sizes, characteristic, terms per element).  The first two rows
# are the smallest spec, where products are also realized by the oracle.
PRODUCT_SPECS = [
    ((2, 3, 3), 0, 16),
    ((2, 3, 3), 2, 16),
    ((2, 3, 3, 4), 0, 64),
    ((2, 3, 3, 4), 5, 64),
    ((3,) * 6, 0, 256),
    ((3,) * 6, 3, 256),
]
POOL_SIZE = 10          # seeded elements per product spec; goldens cover every ordered pair
MUL_POOL_SIZE = 64      # basis-triple pairs per product spec for the `mul` command
PAIRS_PER_PASS = 12     # pool pairs multiplied per spec in one pass
CHAINS_PER_PASS = 2     # power chains x, x^2, x^3 per spec in one pass
MULS_PER_PASS = 50      # `mul` calls per spec in one pass
CROSSCHECKS = 3         # products per smallest spec realized by the oracle after the run

WORKLOADS = ("report-ladder", "verify-modp", "verify-q", "products")


class CliOutput(NamedTuple):
    rc: int
    stdout: str


def run_cli(cli: ModuleType, argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)  # looked up per call, so the tracer's rebinding is seen
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
    return CliOutput(rc, buf.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(out: CliOutput) -> str:
    return f"rc={out.rc} sha256={sha256(out.stdout)}"


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): (\d+) identities", re.M)


def verify_digest(out: CliOutput) -> str:
    """Exit code, final verdict line and every check's identity count; timings are dropped."""
    lines = out.stdout.strip().splitlines()
    checks = " ".join(f"{s}:{n}={c}" for s, n, c in _CHECK_LINE.findall(out.stdout))
    return f"rc={out.rc} last={lines[-1] if lines else ''!r} {checks}"


def element_json(x) -> str:
    return json.dumps(x.to_json(), sort_keys=True, separators=(",", ":"))


def product_digest(out) -> str:
    return sha256(element_json(out))


def chain_digest(out: tuple) -> str:
    return sha256("[" + ",".join(element_json(x) for x in out) + "]")


@dataclass
class Item:
    key: str  # golden key, unique within its workload
    run: Callable[[], object]
    digest: Callable[[object], str]


@dataclass
class Workload:
    items: list[Item]  # one pass, in order
    warmup: Item  # the smallest item, run once during set-up
    largest: str  # key of the item at the top of the size ladder
    crosscheck: Callable[[], tuple[int, int]] = field(default=lambda: (0, 0))


def spec_label(sizes: tuple[int, ...], char: int) -> str:
    return ",".join(map(str, sizes)) + f"/{char}"


def cli_args(sizes: tuple[int, ...], char: int) -> list[str]:
    return ["--sizes", ",".join(map(str, sizes)), "--char", str(char)]


def cli_module(pkg: ModuleType) -> ModuleType:
    return importlib.import_module(f"{pkg.__name__}.cli")


def report_items(pkg: ModuleType) -> list[Item]:
    cli = cli_module(pkg)
    return [
        Item(
            f"report {spec_label(sizes, char)} {fmt}",
            lambda argv=["report", *cli_args(sizes, char), f"--{fmt}"]: run_cli(cli, argv),
            cli_digest,
        )
        for sizes, char in REPORT_LADDER
        for fmt in ("text", "json")
        if fmt == "json" or len(sizes) <= TEXT_UP_TO_N
    ]


def verify_items(pkg: ModuleType, specs, seed: int) -> list[Item]:
    cli = cli_module(pkg)
    return [
        Item(
            f"verify {spec_label(sizes, char)}",
            lambda argv=["verify", *cli_args(sizes, char), "--seed", str(seed)]: run_cli(cli, argv),
            verify_digest,
        )
        for sizes, char in specs
    ]


def random_scalar(spec, rng: random.Random):
    if spec.characteristic:
        return rng.randrange(1, spec.characteristic)
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 10))


class ProductPool:
    """Seeded elements and basis-triple pairs of one product spec.

    The pool does not depend on the workload seed, so goldens can cover all
    of it; the workload seed chooses which pool entries a pass uses.
    """

    def __init__(self, pkg, sizes, char, terms, triples):
        self.pkg = pkg
        self.cli = cli_module(pkg)
        self.spec = pkg.SchemeSpec(sizes, char)
        self.label = spec_label(sizes, char)
        rng = random.Random(f"pool {self.label}")
        self.elements = [
            pkg.Element(self.spec, {t: random_scalar(self.spec, rng) for t in rng.sample(triples, terms)})
            for _ in range(POOL_SIZE)
        ]
        by_left: dict[int, list] = {}
        for t in triples:
            by_left.setdefault(t[0], []).append(t)
        self.mul_args = []
        for k in range(MUL_POOL_SIZE):
            t1 = rng.choice(triples)
            # half the pairs chain (t1's right mask is t2's left mask), so most give a term
            t2 = rng.choice(by_left[t1[2]]) if k % 2 == 0 else rng.choice(triples)
            self.mul_args.append(
                [",".join(pkg.render_mask(m, self.spec.n) for m in t) for t in (t1, t2)]
            )

    def pair(self, i: int, j: int) -> Item:
        x, y = self.elements[i], self.elements[j]
        return Item(f"product {self.label} {i}x{j}", lambda: x.mul(y), product_digest)

    def chain(self, i: int) -> Item:
        x = self.elements[i]

        def run():
            x2 = x.mul(x)
            return x2, x2.mul(x)

        return Item(f"chain {self.label} {i}", run, chain_digest)

    def mul_call(self, k: int) -> Item:
        argv = ["mul", *cli_args(self.spec.sizes, self.spec.characteristic), *self.mul_args[k]]
        return Item(f"mul {self.label} {k}", lambda: run_cli(self.cli, argv), cli_digest)

    def all_items(self) -> list[Item]:
        return (
            [self.pair(i, j) for i in range(POOL_SIZE) for j in range(POOL_SIZE)]
            + [self.chain(i) for i in range(POOL_SIZE)]
            + [self.mul_call(k) for k in range(MUL_POOL_SIZE)]
        )


def product_pools(pkg: ModuleType) -> list[ProductPool]:
    triples: dict[tuple[int, ...], list] = {}
    pools = []
    for sizes, char, terms in PRODUCT_SPECS:
        if sizes not in triples:
            triples[sizes] = pkg.basis_triples(pkg.SchemeSpec(sizes, 0))
        pools.append(ProductPool(pkg, sizes, char, terms, triples[sizes]))
    return pools


def oracle_crosscheck(pool: ProductPool, pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Realize x, y and x*y with the dense oracle and compare x*y with the matrix product."""
    spec, oracle, failed = pool.spec, pool.pkg.oracle, 0
    for i, j in pairs:
        x, y = pool.elements[i], pool.elements[j]
        try:
            lhs = oracle.mat_mul(spec, oracle.realize(spec, x), oracle.realize(spec, y))
            ok = oracle.mat_eq(lhs, oracle.realize(spec, x.mul(y)))
        except Exception:  # a crash is a failed check, not a crashed run
            ok = False
        failed += not ok
    return len(pairs), failed


def products_workload(pkg: ModuleType, seed: int, smoke: bool) -> Workload:
    pools = product_pools(pkg)
    smallest = pools[0].pair(0, 1)
    largest = pools[4].chain(0)
    rng = random.Random(seed)
    if smoke:
        items, checked, largest = [smallest], {0: [(0, 1)]}, smallest
    else:
        items, checked = [], {}
        all_pairs = [(i, j) for i in range(POOL_SIZE) for j in range(POOL_SIZE)]
        for p, pool in enumerate(pools):
            pairs = rng.sample(all_pairs, PAIRS_PER_PASS)
            items += [pool.pair(i, j) for i, j in pairs]
            chains = rng.sample(range(1, POOL_SIZE), CHAINS_PER_PASS)
            items += [pool.chain(i) for i in chains]
            items += [pool.mul_call(k) for k in rng.sample(range(MUL_POOL_SIZE), MULS_PER_PASS)]
            if pool.spec.sizes == pools[0].spec.sizes:
                checked[p] = rng.sample(pairs, CROSSCHECKS)
        items.append(largest)

    def crosscheck() -> tuple[int, int]:
        results = [oracle_crosscheck(pools[p], pairs) for p, pairs in checked.items()]
        return sum(r[0] for r in results), sum(r[1] for r in results)

    return Workload(items, smallest, largest.key, crosscheck)


def build(name: str, seed: int, pkg: ModuleType, smoke: bool = False) -> Workload:
    """The workload's items for one pass; the seed fixes their choice and order."""
    if name == "products":
        return products_workload(pkg, seed, smoke)
    if name == "report-ladder":
        items = report_items(pkg)
    elif name == "verify-modp":
        items = verify_items(pkg, VERIFY_MODP, seed)
    elif name == "verify-q":
        items = verify_items(pkg, VERIFY_Q, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    smallest, largest = items[0], items[-1]
    if smoke:
        return Workload([smallest], smallest, smallest.key)
    random.Random(seed).shuffle(items)
    return Workload(items, smallest, largest.key)


def golden_items(pkg: ModuleType) -> dict[str, list[Item]]:
    """Every item any seed can draw, per workload, for recording goldens."""
    return {
        "report-ladder": report_items(pkg),
        "verify-modp": verify_items(pkg, VERIFY_MODP, 1729),
        "verify-q": verify_items(pkg, VERIFY_Q, 1729),
        "products": [item for pool in product_pools(pkg) for item in pool.all_items()],
    }


def load_goldens() -> dict[str, dict[str, str]]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)
