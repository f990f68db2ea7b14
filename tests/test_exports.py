"""Every name the package and its modules list in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import splinefit

MODULES = ["splinefit"] + [
    f"splinefit.{info.name}"
    for info in pkgutil.iter_modules(splinefit.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
