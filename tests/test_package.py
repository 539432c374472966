"""Package surface: every exported name resolves, and only on first use."""

import ast
import importlib
import inspect
import json
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


_ = object()  # any argument: binding checks names and arity, not types

#: Every kgf name the benchmark harness under ``perfbench/`` looks up, by
#: caller, with the arguments it passes.  ``traced_kgf.install`` replaces
#: each name where kgf looks it up and calls the original with these
#: keywords; the workloads' referees, ``run.py`` and ``test_perfbench.py``
#: call them directly.  ``None`` marks a name that is only wrapped with
#: ``*args, **kwargs`` or read, so it only has to resolve.  ROADMAP
#: direction 8 removes rows as it retires names.
PERFBENCH_LOOKUPS = [
    ("traced", "cli.main", (_,), {}),
    ("traced", "cli.load_config", (_,), {}),
    ("traced", "cli.inner_product_with_diagnostics", (_, _, _), {"check": True}),
    ("traced", "kernels.inner_product_with_diagnostics", (_, _, _), {"check": True}),
    ("traced", "opalgebra.InnerProductTable.from_kernel.__func__", (_, _, _),
     {"check": True}),
    ("traced", "opalgebra.parse_terms", None, None),
    ("traced", "opalgebra.parse_expression", (_, _), {}),
    ("traced", "opalgebra.vacuum_expectation", (_, _), {"strategy": "leftmost"}),
    ("traced", "opalgebra.wick_vev", None, None),
    ("traced", "sampler._SpectrumPlan.draw", (_, _, _), {}),
    ("traced", "sampler.sample_array", (_, _, _, _), {}),
    ("traced", "sampler.SpectrumAccumulator.update", (_, _), {}),
    ("traced", "sampler.power_spectrum", None, None),
    ("traced", "sampler.expected_power", None, None),
    ("traced", "sampler.hamiltonian_classical", None, None),
    ("traced", "sampler.write_samples_csv", None, None),
    ("traced", "sampler.write_samples_binary", None, None),
    ("traced", "sampler.spectrum_csv", None, None),
    ("traced", "verify.run_suite", None, None),
    ("run", "cli.load_config", (_,), {}),
    ("run", "errors.KGFError", None, None),
    ("workloads", "kernels.WavePacket", (), dict.fromkeys(
        ("dim", "center_t", "center_x", "width_t", "width_x", "carrier_freq",
         "carrier_wavevector", "amplitude"), _)),
    ("workloads", "kernels.PhysicalConstants", (), dict.fromkeys(("hbar", "kT", "mass"), _)),
    ("workloads", "kernels.QuadratureSpec", (), {"nodes": _}),
    ("workloads", "kernels.KernelSpec", (), dict.fromkeys(
        ("variant", "constants", "dim", "quadrature"), _)),
    ("workloads", "kernels.KernelVariant.QUANTUM", None, None),
    ("workloads", "kernels.KernelVariant.CLASSICAL", None, None),
    ("workloads", "kernels.inner_product", (_, _, _), {}),
    ("workloads", "kernels.positivity_check", (_, _), {"check": False}),
    ("workloads", "sampler.LatticeSpec", (), {"dim": _, "sites_per_axis": _}),
    ("workloads", "sampler.sample_array", (_, _, _, _), {"workers": 1}),
    ("workloads", "sampler.read_samples_binary", (_,), {}),
    ("workloads", "sampler.read_samples_csv", (_,), {}),
    ("workloads", "spectra.Ensemble.CLASSICAL_EQUILIBRIUM", None, None),
    ("workloads", "spectra.Ensemble.QUANTUM_THERMAL", None, None),
    ("workloads", "spectra.Ensemble.QUANTUM_VACUUM", None, None),
    ("workloads", "spectra.SpectralDensity", (_, _), {}),
    ("workloads", "spectra.spectral_coefficient", (_, _), {}),
    ("test_perfbench", "opalgebra.FunctionRegistry", (), {}),
    ("test_perfbench", "opalgebra.FunctionRegistry.register", (_, _), {}),
    ("test_perfbench", "opalgebra.InnerProductTable", (_,), {}),
    ("test_perfbench", "opalgebra.parse_expression", (_, _), {}),
    ("test_perfbench", "opalgebra.vacuum_expectation", (_, _), {}),
]


@pytest.mark.parametrize("caller, name, args, kwargs", PERFBENCH_LOOKUPS,
                         ids=[f"{caller}:{name}" for caller, name, *_ in PERFBENCH_LOOKUPS])
def test_perfbench_lookups_resolve_and_bind(caller, name, args, kwargs):
    module, *path = name.split(".")
    obj = importlib.import_module(f"kgf.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    if args is not None:
        inspect.signature(obj).bind(*args, **kwargs)


def test_every_perfbench_call_parses(tmp_path, monkeypatch):
    """Each benchmark workload, built with a fixed seed, passes kgf only
    argv that today's parser accepts, so no flag it uses can go."""
    from kgf.cli import build_parser

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])
    parser = build_parser()
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        for call in workload(1, tmp_path / name).calls:
            assert parser.parse_args(call.args).func.__name__ == f"cmd_{call.args[0]}"


def test_perfbench_reads_these_attributes():
    from kgf import kernels, opalgebra, sampler, spectra

    spec = kernels.KernelSpec()
    assert isinstance(spec.quadrature.nodes, int) and spec.dim == 1
    lattice = sampler.LatticeSpec(dim=1, sites_per_axis=8)
    for attr in ("dim", "sites_per_axis", "spacing", "shape", "total_sites", "volume"):
        getattr(lattice, attr)
    density = spectra.SpectralDensity(spectra.Ensemble.QUANTUM_VACUUM)
    assert sampler._SpectrumPlan(density, lattice, False).lattice is lattice
    registry = opalgebra.FunctionRegistry()
    expr = opalgebra.parse_expression("a[f] phi[g]", registry)
    assert expr.terms == {(("a", 1), ("phi", 2)): 1.0}
    table = opalgebra.InnerProductTable({(2, 1): 0.5 - 0.25j})
    assert opalgebra.vacuum_expectation(expr, table, strategy="leftmost") == 0.5 - 0.25j


def _privates(tree: ast.AST, module: str) -> list:
    """The underscore names of ``kgf.<module>`` that a module imports or reads."""
    modules, found = {f"kgf.{module}"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if source in (f".{module}", f"kgf.{module}") and alias.name.startswith("_"):
                    found.append(alias.name)
                if source in (".", "kgf") and alias.name == module:
                    modules.add(alias.asname or module)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == f"kgf.{module}" and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and ast.unparse(node.value) in modules):
            found.append(node.attr)
    return found


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "kgf").glob("*.py"))
PRIVATE_PAIRS = [(module.stem, path) for module in SOURCES if not module.stem.startswith("__")
                 for path in SOURCES if path != module]


@pytest.mark.parametrize("module, path", PRIVATE_PAIRS,
                         ids=[f"{module}-{path.name}" for module, path in PRIVATE_PAIRS])
def test_no_module_touches_another_modules_private(module, path):
    assert _privates(ast.parse(path.read_text(encoding="utf-8")), module) == []


def test_private_check_sees_imports_and_reads():
    source = ("from .kernels import KernelSpec, _passes\n"
              "from . import kernels as K\n"
              "import kgf.kernels\n"
              "from .sampler import _fill\n"
              "K._diagnosis(); kgf.kernels._radial_rule; K.inner_products; K.__name__\n")
    assert sorted(_privates(ast.parse(source), "kernels")) == [
        "_diagnosis", "_passes", "_radial_rule"]
    assert _privates(ast.parse(source), "sampler") == ["_fill"]


#: Modules whose import would bring a second parallel mechanism beside threads.
PROCESS_MODULES = {"multiprocessing", "pickle", "select"}


def _process_uses(tree: ast.AST) -> list:
    """Imports of :data:`PROCESS_MODULES` and uses of ``os.fork`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in PROCESS_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            root = node.module.split(".")[0]
            if root in PROCESS_MODULES:
                found.append(node.module)
            elif root == "os":
                found += [f"os.{alias.name}" for alias in node.names if alias.name == "fork"]
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and ast.unparse(node.value) == "os"):
            found.append("os.fork")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_threads_are_the_one_parallel_mechanism(path):
    assert _process_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_process_check_sees_imports_and_forks():
    source = ("import os, pickle\n"
              "import multiprocessing.pool\n"
              "from select import select\n"
              "from os import fork\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "pid = os.fork()\n")
    assert _process_uses(ast.parse(source)) == [
        "pickle", "multiprocessing.pool", "select", "os.fork", "os.fork"]
