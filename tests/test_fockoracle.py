"""Number-basis oracle: Gibbs sums, tail guards, density cross-checks."""

import math

import numpy as np
import pytest

from kgf import fockoracle
from kgf.errors import AccuracyError, DomainError, InvalidInputError, SizeLimitError
from kgf.fockoracle import (
    MAX_FOCK_STATES,
    MIN_CUTOFF,
    TAIL_TOL,
    VACUUM_GIBBS_X,
    ModeSpec,
    bose_occupancy,
    mode_variance_closed,
    mode_variance_numeric,
    verify_density_variance,
)
from kgf.kernels import PhysicalConstants
from kgf.spectra import Ensemble, SpectralDensity, lambda_of_xi


class TestBoseOccupancy:
    def test_frozen_reference(self):
        assert bose_occupancy(1.0) == pytest.approx(0.5819767068693265, rel=1e-15)

    def test_log_two_gives_unity(self):
        assert bose_occupancy(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_cold_limit_empties(self):
        assert bose_occupancy(50.0) < 1e-21

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            bose_occupancy(x)


class TestModeSpec:
    def test_auto_cutoff_floor(self):
        mode = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=64.0)
        assert mode.cutoff == MIN_CUTOFF

    def test_auto_cutoff_grows_when_warm(self):
        warm = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=0.2)
        assert warm.cutoff == 147
        # selected cutoff satisfies the construction invariant strictly
        assert math.exp(-0.2 * warm.cutoff) < TAIL_TOL

    @pytest.mark.parametrize("kw", [
        {"omega": 0.0}, {"omega": -1.0}, {"hbar_eff": 0.0},
        {"gibbs_x": 0.0}, {"gibbs_x": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(InvalidInputError):
            ModeSpec(**{"omega": 1.0, "hbar_eff": 1.0, "gibbs_x": 1.0, **kw})

    def test_rejects_cutoff_below_floor(self):
        with pytest.raises(InvalidInputError):
            ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=10.0, cutoff=5)

    def test_rejects_cutoff_with_visible_tail(self):
        # e^(-0.2 * 100) ~ 2e-9: fails the construction bound outright
        with pytest.raises(InvalidInputError):
            ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=0.2, cutoff=100)

    @pytest.mark.parametrize("kw", [{"gibbs_x": 1e-8},
                                    {"cutoff": MAX_FOCK_STATES + 1}])
    def test_state_limit_refuses_before_allocating(self, kw, monkeypatch):
        # the automatic cutoff at x = 1e-8 is 4.6e9 states (about 110 GB)
        def no_arange(*args, **kwargs):
            raise AssertionError("number states were allocated")
        monkeypatch.setattr(fockoracle.np, "arange", no_arange)
        with pytest.raises(SizeLimitError, match="MAX_FOCK_STATES"):
            mode = ModeSpec(**{"omega": 1.0, "hbar_eff": 1.0, "gibbs_x": 1.0, **kw})
            mode_variance_numeric(mode)

    def test_state_limit_spares_the_verify_range(self):
        for x in np.geomspace(0.2, 10.0, 20):
            mode = ModeSpec(omega=1.3, hbar_eff=0.7, gibbs_x=float(x))
            assert MIN_CUTOFF <= mode.cutoff <= 147


class TestModeVariance:
    def test_frozen_reference_x_one(self):
        # <q^2> = (1/2) coth(1/2) at omega = hbar_eff = 1
        mode = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=1.0)
        assert mode_variance_numeric(mode) == pytest.approx(
            1.0819767068693265, rel=1e-10
        )
        assert mode_variance_closed(mode) == pytest.approx(
            1.0819767068693265, rel=1e-15
        )

    def test_occupancy_identity(self):
        # (1/2) coth(x/2) = n(x) + 1/2, so <q^2> relates to bose_occupancy
        mode = ModeSpec(omega=0.7, hbar_eff=1.3, gibbs_x=0.9)
        expect = (1.3 / (2.0 * 0.7)) * (2.0 * bose_occupancy(0.9) + 1.0)
        assert mode_variance_numeric(mode) == pytest.approx(expect, rel=1e-11)

    def test_ground_state_limit(self):
        mode = ModeSpec(omega=2.0, hbar_eff=0.5, gibbs_x=VACUUM_GIBBS_X)
        assert mode_variance_numeric(mode) == pytest.approx(
            0.5 / (2.0 * 2.0), rel=1e-14
        )

    def test_numeric_matches_closed_on_log_grid(self):
        for x in np.geomspace(0.2, 10.0, 20):
            mode = ModeSpec(omega=1.3, hbar_eff=0.7, gibbs_x=float(x))
            numeric = mode_variance_numeric(mode)
            closed = mode_variance_closed(mode)
            assert abs(numeric - closed) / closed < 1e-10

    def test_variance_decreases_with_cooling(self):
        xs = np.geomspace(0.3, 30.0, 15)
        vals = [
            mode_variance_numeric(ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=float(x)))
            for x in xs
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_handpicked_cutoff_trips_tail_guard(self):
        # passes the construction bound e^(-xC) < 1e-12 but discards
        # geometric tail mass 4.7e-12 > TAIL_TOL at evaluation time
        mode = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=0.2, cutoff=139)
        with pytest.raises(AccuracyError) as err:
            mode_variance_numeric(mode)
        assert err.value.coarse is not None
        assert err.value.refined is not None
        assert err.value.refined != err.value.coarse

    def test_generous_cutoff_is_accepted(self):
        mode = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=0.2, cutoff=400)
        closed = mode_variance_closed(mode)
        assert mode_variance_numeric(mode) == pytest.approx(closed, rel=1e-12)


class TestDensityVariance:
    def test_thermal_frozen_reference(self):
        # k=0, m=hbar=kT=1: both routes give (1/2) coth(1/2)
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        chk = verify_density_variance(density, 0.0)
        assert chk.closed_form == pytest.approx(1.0819767068693265, rel=1e-15)
        assert chk.rel_err < 1e-10

    def test_thermal_across_wavenumbers(self):
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        for k in np.linspace(0.0, 8.0, 33):
            assert verify_density_variance(density, float(k)).rel_err < 1e-10

    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_xi_lambda_matches_at_generic_lambda(self, xi):
        density = SpectralDensity(
            Ensemble.XI_LAMBDA, PhysicalConstants(xi=xi), lam=0.35)
        assert verify_density_variance(density, 1.2).rel_err < 1e-10

    def test_xi_lambda_closure_equals_vacuum_variance(self):
        constants = PhysicalConstants(xi=0.5)
        closed = SpectralDensity(
            Ensemble.XI_LAMBDA, constants, lam=lambda_of_xi(0.5))
        vacuum = SpectralDensity(Ensemble.QUANTUM_VACUUM, constants)
        a = verify_density_variance(closed, 0.8)
        b = verify_density_variance(vacuum, 0.8)
        assert a.closed_form == pytest.approx(b.closed_form, rel=1e-12)
        assert a.rel_err < 1e-10 and b.rel_err < 1e-10

    def test_vacuum_is_half_inverse_frequency(self):
        density = SpectralDensity(
            Ensemble.QUANTUM_VACUUM, PhysicalConstants(hbar=2.0, mass=3.0))
        chk = verify_density_variance(density, 4.0)
        assert chk.numeric == pytest.approx(2.0 / (2.0 * 5.0), rel=1e-12)

    def test_negative_k_folds(self):
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        a = verify_density_variance(density, 2.0)
        b = verify_density_variance(density, -2.0)
        assert a.numeric == b.numeric

    def test_unsupported_ensembles_rejected(self):
        classical = SpectralDensity(Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants())
        xivac = SpectralDensity(Ensemble.XI_VACUUM, PhysicalConstants(xi=0.5))
        with pytest.raises(InvalidInputError):
            verify_density_variance(classical, 1.0)
        with pytest.raises(InvalidInputError):
            verify_density_variance(xivac, 1.0)

    def test_kmag_validated(self):
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        with pytest.raises(InvalidInputError):
            verify_density_variance(density, "abc")
        with pytest.raises(InvalidInputError):
            verify_density_variance(density, float("inf"))

    def test_massless_zero_mode_rejected(self):
        density = SpectralDensity(
            Ensemble.QUANTUM_THERMAL, PhysicalConstants(mass=0.0))
        with pytest.raises(InvalidInputError):
            verify_density_variance(density, 0.0)
