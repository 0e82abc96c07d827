"""The benchmark's goldens, and every verify record on eleven specs.

The goldens in perfbench/goldens.json were recorded from the seed commit.
Each item's output is reduced to the same digest the benchmark compares, so
a change to any report byte, verify identity count or product term fails
here as well as in the benchmark.  tests/verify_records.json holds the
(name, passed, count, detail) of every run_all record at seed 1729 with two
base points, so a change to any check's count or detail fails here too.
The benchmark's largest product items, the (3,)^6/0 power chains, must keep
their numerators in int64.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import terwilliger
from terwilliger import algebra
from terwilliger.scheme import SchemeSpec
from terwilliger.verify import run_all

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDENS = WORKLOADS.load_goldens()
VERIFY_RECORDS = json.loads((ROOT / "tests" / "verify_records.json").read_text())


@pytest.mark.parametrize("workload", ["report-ladder", "verify-modp", "verify-q", "products"])
def test_outputs_match_the_goldens(workload):
    items = WORKLOADS.golden_items(terwilliger)[workload]
    assert items
    golden = GOLDENS[workload]
    mismatched = [item.key for item in items if item.digest(item.run()) != golden[item.key]]
    assert mismatched == []


@pytest.mark.parametrize("label", sorted(VERIFY_RECORDS))
def test_verify_records_match(label):
    sizes, characteristic = label.split("/")
    spec = SchemeSpec(tuple(int(s) for s in sizes.split(",")), int(characteristic))
    got = [[r.name, r.passed, r.count, r.detail] for r in run_all(spec, base_points=2, seed=1729)]
    assert got == VERIFY_RECORDS[label]


def test_char_zero_power_chains_stay_on_int64(monkeypatch):
    # x -> x^2 -> x^3 for each pool element: the L1 bound of every product
    # is below 2^63, so both products multiply int64 numerators.
    (sizes, char, terms), = [s for s in WORKLOADS.PRODUCT_SPECS if s[:2] == ((3,) * 6, 0)]
    pool = WORKLOADS.ProductPool(terwilliger, sizes, char, terms, terwilliger.basis_triples(SchemeSpec(sizes)))
    dtypes = []
    numerator_dtype = algebra._numerator_dtype
    monkeypatch.setattr(algebra, "_numerator_dtype", lambda *args: dtypes.append(numerator_dtype(*args)) or dtypes[-1])
    for x in pool.elements:
        x.mul(x).mul(x)
    assert dtypes == [np.int64] * 20
