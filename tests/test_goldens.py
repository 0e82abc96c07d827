"""The benchmark's goldens: every report and verify item, and the (2,3,3) product pools.

The goldens in perfbench/goldens.json were recorded from the seed commit.
Each item's output is reduced to the same digest the benchmark compares, so
a change to any report byte, verify identity count or product term fails
here as well as in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import terwilliger

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
PRODUCT_LABELS = {"2,3,3/0", "2,3,3/2"}


@pytest.mark.parametrize("workload", ["report-ladder", "verify-modp", "verify-q", "products"])
def test_outputs_match_the_goldens(workload):
    items = WORKLOADS.golden_items(terwilliger)[workload]
    if workload == "products":
        items = [item for item in items if item.key.split()[1] in PRODUCT_LABELS]
    assert items
    golden = GOLDENS[workload]
    mismatched = [item.key for item in items if item.digest(item.run()) != golden[item.key]]
    assert mismatched == []
