"""Package surface: every exported name resolves."""

import importlib

import pytest

MODULES = ["kgf", "kgf.cli", "kgf.errors", "kgf.fockoracle", "kgf.kernels",
           "kgf.opalgebra", "kgf.sampler", "kgf.spectra", "kgf.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
