"""The shipped gate against known faults: each row applies one fault
in-process, runs the smallest ``kgf verify`` suites that should catch it,
and requires every named check to FAIL.

This is mutation analysis of the gate itself (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978): a fault that
no check kills points to a missing check.
"""

import pytest

from kgf import kernels, sampler, spectra, verify
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
]


@pytest.mark.parametrize("apply, killers", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_gate_kills_the_mutant(monkeypatch, apply, killers):
    apply(monkeypatch)
    for suite, names in killers.items():
        results = {r.name: r for r in verify.run_suite(suite)}
        for name in names:
            assert not results[name].passed, f"{name} passed: {results[name].detail}"
