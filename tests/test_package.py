"""The package surface: the README's library example, the names the benchmark tracer rebinds,
the imports of each module, and the numpy calls that would bring in a float."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

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


def unused_imports(source):
    """Names a module imports but never reads, leaving out __future__ imports and __all__ entries."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_no_module_imports_a_name_it_never_uses():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom .a import b, c\nc(os)\n"
    assert unused_imports(source) == ["b", "regex"]
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []
    modules = sorted((ROOT / "src" / "terwilliger").glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


# One-triple and one-row wrappers the benchmark tracer pins; the package itself uses the stacked forms.
TRACER_ONLY = {"realize_triple", "realize_raw_triple", "realize_raw", "triple_intersection_count"}


def names_read(source):
    """The names a source reads, imports or looks up as attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_only_the_oracle_refers_to_the_tracer_only_wrappers():
    source = "from .oracle import realize_raw as r\nimport x\nx.oracle.realize_triple(s, t)\nrealize = 1\n"
    assert names_read(source) & TRACER_ONLY == {"realize_raw", "realize_triple"}
    modules = sorted((ROOT / "src" / "terwilliger").glob("*.py"))
    assert "oracle.py" in {path.name for path in modules}
    callers = {path.name: sorted(names_read(path.read_text()) & TRACER_ONLY) for path in modules}
    assert {name: found for name, found in callers.items() if found and name != "oracle.py"} == {}


def third_party_imports(source):
    """The top-level names of the modules a source imports outside the standard library:
    import and from-import statements, and importlib.import_module or __import__ calls
    on a constant name.  Relative imports stay inside the package and are skipped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in {"import_module", "__import__"} and isinstance(node.args[0].value, str):
                names.add(node.args[0].value)
    return {name.split(".")[0] for name in names} - set(sys.stdlib_module_names)


def test_modules_import_only_the_standard_library_and_numpy():
    # scipy and sympy may be installed where the package runs, but numpy is its only dependency.
    source = (
        "import os, numpy as np\nimport scipy.linalg\nfrom sympy import Matrix\nfrom . import algebra\n"
        "from .oracle import mat_mul\nimportlib.import_module('networkx')\n__import__('fractions')\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy", "sympy", "networkx"}
    modules = sorted((ROOT / "src" / "terwilliger").glob("*.py"))
    assert modules
    assert set().union(*(third_party_imports(path.read_text()) for path in modules)) <= {"numpy"}


def float_uses(source):
    """Lines where a module brings a float into numpy: a weights= keyword (bincount sums
    weights in float64), np.mean, np.average or np.true_divide, and float or a np.float*
    type as a value, or a float dtype named by a string.  Annotations are exempt, so
    `seconds: float` and the time.perf_counter readings it holds pass."""
    tree = ast.parse(source)
    notes = [getattr(node, field) for node in ast.walk(tree) for field in ("annotation", "returns")
             if getattr(node, field, None) is not None]
    exempt = {id(node) for note in notes for node in ast.walk(note)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.keyword) and node.arg == "weights":
            found.add(node.value.lineno)
        elif isinstance(node, ast.Attribute) and (
            node.attr in {"mean", "average", "true_divide"} or node.attr.startswith("float")
        ):
            found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "float":
            found.add(node.lineno)
        elif isinstance(node, ast.Call):
            named = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                named += node.args[:1]
            for value in named:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    if np.dtype(value.value).kind in "fc":
                        found.add(value.lineno)
    return sorted(found)


def test_no_module_brings_a_float_into_numpy():
    source = (
        "import time\nimport numpy as np\n"
        "seconds: float = time.perf_counter()\n"  # 3: exempt
        "np.bincount(a, weights=b)\n"  # 4
        "np.mean(a)\n"  # 5
        "a.astype(float)\n"  # 6
        "np.zeros(3, dtype=np.float64)\n"  # 7
        "b.astype('f8')\n"  # 8
        "np.ones(2, dtype='int64')\n"  # 9: an integer dtype
        "np.true_divide(a, b)\n"  # 10
        "def f(x: float) -> float:\n    return np.average(x)\n"  # 11 exempt, 12
    )
    assert float_uses(source) == [4, 5, 6, 7, 8, 10, 12]
    modules = sorted((ROOT / "src" / "terwilliger").glob("*.py"))
    assert modules
    found = {path.name: float_uses(path.read_text()) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
