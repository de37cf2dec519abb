"""Every name a module exports is defined in it."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["euler", "curves", "riemann", "tracking",
                                  "functionals", "experiments"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hyperwedge.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
