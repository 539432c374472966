"""Fock-space oracles: the vacuum representation against the contraction
kernel; number-basis Gibbs sums, tail guards, density cross-checks."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from kgf import fockoracle
from kgf.errors import (
    AccuracyError,
    InvalidInputError,
    MissingInnerProductError,
    SizeLimitError,
)
from kgf.fockoracle import (
    MIN_CUTOFF,
    TAIL_TOL,
    VACUUM_GIBBS_X,
    ModeSpec,
    fock_vacuum_expectation,
    mode_variance_closed,
    mode_variance_numeric,
    verify_density_variance,
)
from kgf.kernels import PhysicalConstants
from kgf.opalgebra import InnerProductTable, contract
from kgf.spectra import Ensemble, SpectralDensity, lambda_of_xi

# exact in binary floating point, so the hand values hold bitwise
DYADIC_TABLE = InnerProductTable({
    (1, 1): 1.0,
    (2, 2): 2.0,
    (1, 2): 0.5 + 0.25j,
    (2, 1): 0.5 - 0.25j,
})


def random_word(rng, length, functions):
    """Random a/adag/phi letters, the first able to annihilate and the
    last able to create, so that most even words have a nonzero VEV."""
    kinds = rng.integers(0, 3, size=length)
    indices = rng.integers(1, functions + 1, size=length)
    word = [(("a", "adag", "phi")[k], int(i)) for k, i in zip(kinds, indices)]
    if word:
        word[0] = (("a", "phi")[rng.integers(2)], word[0][1])
        word[-1] = (("adag", "phi")[rng.integers(2)], word[-1][1])
    return word


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

    def test_cutoff_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=10.0, cutoff=400)

    # the automatic cutoff at x = 1e-8 is 4.6e9 states (about 110 GB); at
    # the tiny x it would be a 300-digit integer, inf, or a log of 0
    @pytest.mark.parametrize("kw", [{"gibbs_x": x} for x in
                                    (1e-8, 1e-300, 1e-307, 1e-313, 5e-324)])
    def test_state_limit_refuses_before_allocating(self, kw, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("number states were allocated")
        monkeypatch.setattr(fockoracle.np, "arange", no_arange)
        with pytest.raises(SizeLimitError, match="MAX_FOCK_STATES") as err:
            mode = ModeSpec(**{"omega": 1.0, "hbar_eff": 1.0, "gibbs_x": 1.0, **kw})
            mode_variance_numeric(mode)
        assert f"gibbs_x {kw['gibbs_x']!r}" in str(err.value)
        assert max(map(len, re.findall(r"\d+", str(err.value)))) < 10

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
        # (1/2) coth(x/2) = n(x) + 1/2 with Bose occupancy n(x) = 1/(e^x - 1)
        mode = ModeSpec(omega=0.7, hbar_eff=1.3, gibbs_x=0.9)
        expect = (1.3 / (2.0 * 0.7)) * (2.0 / math.expm1(0.9) + 1.0)
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

    def test_handpicked_cutoff_trips_tail_guard(self, monkeypatch):
        # e^(-0.2 * 139) < 1e-12, yet the geometric tail it discards is
        # 4.7e-12 > TAIL_TOL: the exact-tail check refuses the sum
        monkeypatch.setattr(fockoracle, "_auto_cutoff", lambda x: 139)
        mode = ModeSpec(omega=1.0, hbar_eff=1.0, gibbs_x=0.2)
        assert mode.cutoff == 139
        with pytest.raises(AccuracyError) as err:
            mode_variance_numeric(mode)
        assert err.value.coarse is not None
        assert err.value.refined is not None
        assert err.value.refined != err.value.coarse


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

    @pytest.mark.parametrize("ensemble", [Ensemble.QUANTUM_VACUUM,
                                          Ensemble.QUANTUM_THERMAL])
    def test_wavenumber_past_the_square_overflow(self, ensemble):
        # k*k overflows at 1e200, omega = |k| does not
        chk = verify_density_variance(SpectralDensity(ensemble), 1e200)
        assert chk.closed_form == pytest.approx(5e-201, rel=1e-15)
        assert chk.numeric == pytest.approx(5e-201, rel=1e-14)

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


class TestFockVacuumExpectation:
    def test_hand_values(self):
        # pairs (03)(12) + (02)(13) = ip(1,1) ip(2,2) + ip(2,1) ip(1,2)
        #   = 2 + |0.5+0.25j|^2
        ladder = [("a", 1), ("a", 2), ("adag", 2), ("adag", 1)]
        assert fock_vacuum_expectation(ladder, DYADIC_TABLE) == 2.3125
        # (01)(23) + (02)(13) + (03)(12) = ip(1,1) ip(2,2) + 2 ip(2,1)^2
        fields = [("phi", 1), ("phi", 1), ("phi", 2), ("phi", 2)]
        assert fock_vacuum_expectation(fields, DYADIC_TABLE) == complex(2.375, -0.5)

    def test_orientation_on_a_non_hermitian_table(self):
        # [a(f_i), adag(f_j)] = ip[(j, i)], whether or not ip is Hermitian
        table = InnerProductTable({(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0j, (2, 2): 1.0})
        assert fock_vacuum_expectation([("a", 1), ("adag", 2)], table) == 3.0j
        assert fock_vacuum_expectation([("phi", 2), ("phi", 1)], table) == 2.0
        assert fock_vacuum_expectation([("adag", 1), ("a", 2)], table) == 0.0

    def test_empty_word_is_one_and_odd_words_exactly_zero(self):
        assert fock_vacuum_expectation([], DYADIC_TABLE) == 1.0
        rng = np.random.default_rng(606)
        for n in (1, 3, 5, 7, 9):
            assert fock_vacuum_expectation(random_word(rng, n, 2), DYADIC_TABLE) == 0.0
            assert fock_vacuum_expectation([("phi", 1)] * n, DYADIC_TABLE) == 0.0

    def test_matches_contract_on_non_hermitian_tables(self):
        rng = np.random.default_rng(4711)
        nonzero = 0
        for _ in range(20):
            raw = rng.uniform(-1.0, 1.0, size=(4, 4, 2))
            table = InnerProductTable({(i + 1, j + 1): complex(*raw[i, j])
                                       for i in range(4) for j in range(4)})
            for n in (2, 4, 6, 8, 10):
                word = random_word(rng, n, 4)
                want = contract(word, table)
                got = fock_vacuum_expectation(word, table)
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), word
                nonzero += want != 0
        assert nonzero > 50

    def test_24_distinct_fields_are_refused_in_bounded_time_and_memory(self):
        """24 distinct phi letters would need up to C(36, 12) ~ 1.25e9
        states; the refusal comes after about 1.2e5.  It is timed untraced,
        since tracemalloc slows these allocations about eightfold, and then
        traced for its peak."""
        rng = np.random.default_rng(24)
        raw = rng.uniform(-1.0, 1.0, size=(24, 24, 2))
        table = InnerProductTable({(i + 1, j + 1): complex(*raw[i, j])
                                   for i in range(24) for j in range(24)})
        word = [("phi", i) for i in range(1, 25)]
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="MAX_REFEREE_STATES = 131072"):
            fock_vacuum_expectation(word, table)
        assert time.perf_counter() - start < 2.0
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                fock_vacuum_expectation(word, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_long_words_over_few_functions_still_evaluate(self):
        # phi(f1)^40 = 39!! (f1, f1)^20
        assert fock_vacuum_expectation([("phi", 1)] * 40, DYADIC_TABLE) == \
            pytest.approx(math.prod(range(1, 40, 2)), rel=1e-14)
        # (phi1 phi2)^20 on a real symmetric table, where the fields commute:
        # Isserlis' E[X^20 Y^20], with j of the pairs joining an X to a Y
        a, b, c = 1.0, 2.0, 0.5
        table = InnerProductTable({(1, 1): a, (2, 2): b, (1, 2): c, (2, 1): c})
        want = sum(math.comb(20, j) ** 2 * math.factorial(j) * c**j
                   * (math.prod(range(1, 20 - j, 2)) ** 2 * (a * b) ** ((20 - j) // 2))
                   for j in range(0, 21, 2))
        got = fock_vacuum_expectation([("phi", 1), ("phi", 2)] * 20, table)
        assert got == pytest.approx(want, rel=1e-13)

    def test_absent_entry_raises(self):
        with pytest.raises(MissingInnerProductError) as err:
            fock_vacuum_expectation([("a", 1), ("adag", 3)], DYADIC_TABLE)
        assert err.value.pair == (3, 1)
