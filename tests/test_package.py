"""The package surface: the README's library example, the names the benchmark tracer rebinds,
and the imports of each module."""

import ast
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


def test_modules_import_only_the_standard_library_and_numpy():
    modules = sorted((ROOT / "src" / "terwilliger").glob("*.py"))
    assert modules
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) <= {"numpy"}
