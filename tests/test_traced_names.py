"""Every callable the benchmark traces still exists under its traced name.

The benchmark's tracer (``perfbench/tracing.py``) wraps functions by module
and attribute path. A rename or deletion here would otherwise surface only
when the benchmark runs. The table is read from the source text with
``ast``, so the benchmark module is neither imported nor written to.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
