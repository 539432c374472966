"""The shipped gate against known faults: each row applies one fault
in-process, runs the smallest ``kgf verify`` suites that should catch it,
and requires every named check to FAIL.

This is mutation analysis of the gate itself (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978): a fault that
no check kills points to a missing check.
"""

import numpy as np
import pytest

from kgf import cli, fockoracle, kernels, opalgebra, sampler, spectra, verify
from kgf.kernels import KernelVariant
from kgf.spectra import Ensemble


def scale_draw(factor):
    """Every mode scale of the draw times ``factor``."""
    def apply(monkeypatch):
        build = sampler._SpectrumPlan.__init__

        def scaled(plan, *args, **kwargs):
            build(plan, *args, **kwargs)
            plan.scale = plan.scale * factor
        monkeypatch.setattr(sampler._SpectrumPlan, "__init__", scaled)
    return apply


def raise_expected_power(monkeypatch):
    """The moment contract V/(2c) 3% high."""
    expected = sampler.expected_power
    monkeypatch.setattr(sampler, "expected_power",
                        lambda *args, **kwargs: 1.03 * expected(*args, **kwargs))


def double_classical_coefficient(monkeypatch):
    """c(k) of the classical ensemble doubled, wherever it is looked up."""
    coefficient = spectra.spectral_coefficient

    def doubled(density, kmag):
        c = coefficient(density, kmag)
        return 2.0 * c if density.ensemble is Ensemble.CLASSICAL_EQUILIBRIUM else c
    for module in (spectra, sampler):
        monkeypatch.setattr(module, "spectral_coefficient", doubled)


def flip_kernel_weight(monkeypatch):
    """The mass-shell weight of every kernel variant negated."""
    weight = kernels._variant_weight
    monkeypatch.setattr(kernels, "_variant_weight",
                        lambda spec, omega: -weight(spec, omega))


def apply_xi_twice(monkeypatch):
    """The xi-scaled weight multiplied by xi a second time."""
    weight = kernels._variant_weight

    def twice(spec, omega):
        w = weight(spec, omega)
        return w * spec.constants.xi if spec.variant is KernelVariant.XI_SCALED else w
    monkeypatch.setattr(kernels, "_variant_weight", twice)


class _Transposed:
    """An inner-product table read with each pair's indices swapped."""

    def __init__(self, ip):
        self.ip = ip

    def __getitem__(self, pair):
        return self.ip[pair[::-1]]


def swap_contract_pair_order(monkeypatch):
    """``contract`` reads ip[(i, j)] where it reads ip[(j, i)]."""
    contract = opalgebra.contract
    monkeypatch.setattr(opalgebra, "contract",
                        lambda letters, ip: contract(letters, _Transposed(ip)))


def halve_fock_cutoff(monkeypatch):
    """The Fock oracle sums over half its derived number of states."""
    cutoff = fockoracle._auto_cutoff
    monkeypatch.setattr(fockoracle, "_auto_cutoff", lambda x: cutoff(x) // 2)


MUTANTS = [
    ("draw_scale_x1.03", scale_draw(1.03),
     {"sampler": {"sampler_moments", "equipartition"}}),
    ("draw_scale_x0.97", scale_draw(0.97),
     {"sampler": {"sampler_moments", "equipartition"}}),
    ("expected_power_x1.03", raise_expected_power,
     {"sampler": {"sampler_moments"}}),
    ("classical_coefficient_x2", double_classical_coefficient,
     {"spectra": {"crossover"}, "sampler": {"equipartition"}}),
    ("kernel_weight_sign_flipped", flip_kernel_weight,
     {"kernels": {"kernel_axioms"}}),
    ("xi_applied_twice", apply_xi_twice,
     {"kernels": {"kernel_axioms"}}),
    ("contract_pair_order_swapped", swap_contract_pair_order,
     {"algebra": {"algebra_equivalence", "two_point_orientation"}}),
    ("fock_cutoff_halved", halve_fock_cutoff,
     {"fock": {"fock_oracle"}}),
]


@pytest.mark.parametrize("apply, killers", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_gate_kills_the_mutant(monkeypatch, apply, killers):
    apply(monkeypatch)
    for suite, names in killers.items():
        results = {r.name: r for r in verify.run_suite(suite)}
        for name in names:
            assert not results[name].passed, f"{name} passed: {results[name].detail}"


def test_verify_reports_every_check_when_one_raises(monkeypatch, capsys):
    """A check whose computation raises is a FAIL line carrying the error;
    the checks before and after it still run, and the command exits 1."""
    monkeypatch.setattr(sampler, "spectral_coefficient",  # c(k) = 0 on every mode
                        lambda density, kmag: np.zeros(np.shape(kmag)))
    assert cli.main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    failed = {line.split()[1] for line in lines[:8] if line.startswith("[FAIL]")}
    assert failed == {"sampler_moments", "equipartition", "fock_oracle"}
    assert all("DegenerateModeError: " in line
               for line in lines[:8] if line.startswith("[FAIL]"))
    assert lines[8].startswith("8 checks, 5 passed, 3 failed")
