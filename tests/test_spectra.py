"""Spectral coefficients: closed forms, closure identity, crossover."""

import math

import numpy as np
import pytest

from kgf.errors import DomainError, InvalidInputError
from kgf.kernels import PhysicalConstants
from kgf.spectra import (
    Ensemble,
    SpectralDensity,
    crossover_report,
    lambda_of_xi,
    spectral_coefficient,
)

NATURAL = PhysicalConstants()


def density(ens, constants=NATURAL, **kw):
    return SpectralDensity(ens, constants, **kw)


class TestLambdaOfXi:
    def test_frozen_values(self):
        assert lambda_of_xi(0.5) == pytest.approx(0.45511961331341877, rel=1e-15)
        assert lambda_of_xi(0.9) == pytest.approx(0.30566094470559774, rel=1e-15)

    def test_small_xi_limit_is_half(self):
        assert lambda_of_xi(1e-8) == pytest.approx(0.5, abs=1e-10)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.01, 0.99, 99)
        vals = [lambda_of_xi(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 0.5 for v in vals)

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.3, 1.7, float("nan"), float("inf")])
    def test_domain_errors(self, xi):
        with pytest.raises(DomainError):
            lambda_of_xi(xi)


class TestSpectralCoefficient:
    def test_classical_is_omega_squared_over_2kT(self):
        d = density(Ensemble.CLASSICAL_EQUILIBRIUM,
                    PhysicalConstants(kT=2.0, mass=3.0))
        # omega^2 = 16 + 9 at k=4
        assert spectral_coefficient(d, 4.0) == pytest.approx(25.0 / 4.0, rel=1e-15)

    def test_vacuum_is_omega_over_hbar(self):
        d = density(Ensemble.QUANTUM_VACUUM, PhysicalConstants(hbar=2.0, mass=0.0))
        assert spectral_coefficient(d, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_thermal_frozen_reference(self):
        # k=0, m=1, hbar=kT=1: c_T = tanh(1/2) * 1
        d = density(Ensemble.QUANTUM_THERMAL)
        assert spectral_coefficient(d, 0.0) == pytest.approx(
            0.46211715726000974, rel=1e-15
        )

    def test_xi_vacuum_divides_by_xi(self):
        c = PhysicalConstants(xi=0.5)
        vac = spectral_coefficient(density(Ensemble.QUANTUM_VACUUM, c), 1.3)
        xiv = spectral_coefficient(density(Ensemble.XI_VACUUM, c), 1.3)
        assert xiv == pytest.approx(vac / 0.5, rel=1e-15)

    def test_even_in_k(self):
        d = density(Ensemble.QUANTUM_THERMAL)
        assert spectral_coefficient(d, -2.0) == spectral_coefficient(d, 2.0)

    def test_vectorized_matches_scalar(self):
        d = density(Ensemble.QUANTUM_THERMAL)
        k = np.linspace(0.0, 5.0, 11)
        vec = spectral_coefficient(d, k)
        assert vec.shape == k.shape
        for kv, cv in zip(k, vec):
            assert spectral_coefficient(d, float(kv)) == pytest.approx(cv, rel=1e-15)

    def test_positive_for_positive_mass(self):
        for ens in Ensemble:
            lam = 0.7 if ens is Ensemble.XI_LAMBDA else None
            d = density(ens, PhysicalConstants(xi=0.5), lam=lam)
            k = np.geomspace(1e-4, 50.0, 40)
            assert np.all(spectral_coefficient(d, k) > 0)

    def test_nonfinite_k_rejected(self):
        d = density(Ensemble.QUANTUM_VACUUM)
        with pytest.raises(InvalidInputError):
            spectral_coefficient(d, float("nan"))

    def test_massless_classical_vanishes_at_zero(self):
        d = density(Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants(mass=0.0))
        assert spectral_coefficient(d, 0.0) == 0.0


class TestDensityValidation:
    def test_thermal_requires_positive_kT(self):
        with pytest.raises(InvalidInputError):
            density(Ensemble.QUANTUM_THERMAL, PhysicalConstants(kT=0.0))

    def test_classical_requires_positive_kT(self):
        with pytest.raises(InvalidInputError):
            density(Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants(kT=0.0))

    def test_xi_lambda_requires_lambda(self):
        with pytest.raises(InvalidInputError):
            density(Ensemble.XI_LAMBDA)
        with pytest.raises(InvalidInputError):
            density(Ensemble.XI_LAMBDA, lam=-1.0)

    def test_lambda_rejected_elsewhere(self):
        with pytest.raises(InvalidInputError):
            density(Ensemble.QUANTUM_VACUUM, lam=0.3)

    def test_ensemble_type_checked(self):
        with pytest.raises(InvalidInputError):
            SpectralDensity("quantum_vacuum", NATURAL)


class TestClosure:
    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_xi_lambda_closed_collapses_to_vacuum(self, xi):
        c = PhysicalConstants(xi=xi)
        closed = SpectralDensity.xi_lambda_closed(c)
        vac = density(Ensemble.QUANTUM_VACUUM, c)
        k = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 64)])
        a = spectral_coefficient(closed, k)
        b = spectral_coefficient(vac, k)
        assert np.max(np.abs(a - b) / b) < 1e-12

    def test_off_closure_lambda_does_not_collapse(self):
        c = PhysicalConstants(xi=0.5)
        off = density(Ensemble.XI_LAMBDA, c, lam=0.3)
        vac = density(Ensemble.QUANTUM_VACUUM, c)
        assert spectral_coefficient(off, 1.0) != pytest.approx(
            spectral_coefficient(vac, 1.0), rel=1e-3
        )


class TestCrossover:
    def test_thermal_sits_below_both_envelopes(self):
        rows = crossover_report(PhysicalConstants(mass=0.0),
                                np.geomspace(1e-2, 20.0, 50))
        for row in rows:
            assert row.c_T < row.c_E or math.isclose(row.c_T, row.c_E)
            assert row.c_T < row.c_Q

    def test_frozen_deviations_massless(self):
        # m=0, hbar=kT=1: rel_dev_E = 1 - tanh(k/2)/(k/2), rel_dev_Q = 1 - tanh(k/2)
        rows = crossover_report(PhysicalConstants(mass=0.0), [0.2, 6.0])
        low, high = rows
        assert low.rel_dev_E == pytest.approx(0.003320053750442003, rel=1e-12)
        assert high.rel_dev_Q == pytest.approx(0.004945246313269536, rel=1e-12)

    def test_classical_regime_within_one_percent(self):
        constants = PhysicalConstants(mass=0.001)
        rows = crossover_report(constants, np.linspace(0.01, 0.2, 20))
        assert all(r.rel_dev_E < 0.01 for r in rows)

    def test_vacuum_regime_within_one_percent(self):
        rows = crossover_report(NATURAL, np.linspace(6.0, 40.0, 20))
        assert all(r.rel_dev_Q < 0.01 for r in rows)

    def test_deviation_monotone_out_of_each_regime(self):
        rows = crossover_report(PhysicalConstants(mass=0.0),
                                np.geomspace(0.05, 30.0, 40))
        dev_e = [r.rel_dev_E for r in rows]
        dev_q = [r.rel_dev_Q for r in rows]
        assert all(a < b for a, b in zip(dev_e, dev_e[1:]))
        assert all(a > b for a, b in zip(dev_q, dev_q[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            crossover_report(NATURAL, [])

    def test_kT_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            crossover_report(PhysicalConstants(kT=0.0), [1.0])
