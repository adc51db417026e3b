"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import chesswit

MODULES = ["chesswit"] + [f"chesswit.{m.name}"
                          for m in pkgutil.iter_modules(chesswit.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
