"""Every package name the benchmark reads still exists under that name.

The benchmark's tracer (``perfbench/tracing.py``) wraps functions by module
and attribute path, and its workloads and tests call the package through
module aliases. A rename or deletion here would otherwise surface only
when the benchmark runs. Both are read from the source text with ``ast``,
so no benchmark module is imported or written to.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_callable_resolves(name):
    module, attribute = TARGETS[name]
    obj = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), name


# The names the benchmark binds to the package and its modules.
ALIASES = {"sf": "splinefit", "splinefit": "splinefit", "cli_io": "splinefit.cli_io",
           "fitting": "splinefit.fitting", "wls": "splinefit.wls"}


def _chains():
    """``(file, chain)`` for every attribute chain in ``perfbench/*.py`` rooted at an alias."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in ALIASES:
                found.add((path.name, ".".join([node.id, *parts])))
    return sorted(found)


@pytest.mark.parametrize("where, chain", _chains())
def test_benchmark_package_name_resolves(where, chain):
    root, *attributes = chain.split(".")
    obj = importlib.import_module(ALIASES[root])
    for attribute in attributes:
        assert hasattr(obj, attribute), f"{where}: {chain}"
        obj = getattr(obj, attribute)
