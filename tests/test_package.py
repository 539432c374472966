"""Package surface: every exported name resolves, and only on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

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


def test_import_kgf_loads_no_numpy():
    import kgf

    code = "import sys, kgf; print(sorted(m for m in sys.modules if m.startswith(('kgf', 'numpy'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=Path(kgf.__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['kgf']"


def test_lazy_names_are_the_submodules_objects():
    import kgf
    from kgf import sampler

    namespace = {}
    exec("from kgf import *", namespace)
    assert namespace["LatticeSpec"] is sampler.LatticeSpec is kgf.LatticeSpec
    assert namespace["__version__"] == kgf.__version__
    with pytest.raises(AttributeError, match="no_such_name"):
        kgf.no_such_name
