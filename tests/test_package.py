"""The package surface: the README's library example and the names the benchmark tracer rebinds."""

import importlib.util
import re
import sys
from pathlib import Path

import terwilliger

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_library_example_runs_against_the_package_root():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    spec = namespace["spec"]
    assert len(namespace["basis_triples"](spec)) == 20
    assert namespace["radical_summary"](spec)["dim"] == 12
    assert namespace["wedderburn_summary"](spec)["blocks"] == [
        {"signature": "00", "size": 2, "rows": ["00", "10"]},
        {"signature": "01", "size": 2, "rows": ["01", "11"]},
    ]
    assert namespace["y"] == namespace["x"].mul(namespace["x"])
    assert namespace["from_raw"](spec, namespace["raw"]) == namespace["y"]
    assert terwilliger.oracle.realize(spec, namespace["y"]).shape == (6, 6)


def test_tracer_names_resolve_and_are_restored():
    import terwilliger.cli  # noqa: F401  (loads every module the tracer rebinds)

    tracer = _load_tracer()

    def resolve(layer, attr):
        obj = sys.modules[f"terwilliger.{layer}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    names = [
        (layer, attr)
        for table in (tracer.SPANNED, tracer.COUNTED)
        for layer, attrs in table.items()
        for attr in attrs
    ]
    before = {name: resolve(*name) for name in names}
    t = tracer.Tracer()
    try:
        t.install()
        assert all(resolve(*name) is not before[name] for name in names)
    finally:
        t.uninstall()
    assert all(resolve(*name) is before[name] for name in names)
