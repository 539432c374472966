"""Lattice sampler: moment contract, determinism, functionals, file formats."""

import hashlib
import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from kgf import sampler
from kgf.errors import DegenerateModeError, InvalidInputError
from kgf.kernels import PhysicalConstants
from kgf.sampler import (
    BINARY_MAGIC,
    BLOCK_SIZE,
    FieldConfiguration,
    LatticeSpec,
    SpectrumAccumulator,
    expected_power,
    hamiltonian_classical,
    power_spectrum,
    read_samples_binary,
    read_samples_csv,
    sample_array,
    sample_chunks,
    smear,
    smear_variance,
    spectrum_csv,
    write_samples_binary,
    write_samples_csv,
)
from kgf.spectra import Ensemble, SpectralDensity

NATURAL = PhysicalConstants()
VACUUM = SpectralDensity(Ensemble.QUANTUM_VACUUM, NATURAL)
THERMAL = SpectralDensity(Ensemble.QUANTUM_THERMAL, NATURAL)
CLASSICAL = SpectralDensity(Ensemble.CLASSICAL_EQUILIBRIUM, NATURAL)


def cosine_config(lattice, j, amplitude=1.0):
    x = lattice.spacing * np.arange(lattice.sites_per_axis)
    k = 2.0 * math.pi * j / (lattice.sites_per_axis * lattice.spacing)
    return FieldConfiguration(lattice, amplitude * np.cos(k * x))


class TestLatticeSpec:
    def test_geometry(self):
        lat = LatticeSpec(dim=2, sites_per_axis=16, spacing=0.5)
        assert lat.shape == (16, 16)
        assert lat.total_sites == 256
        assert lat.volume == pytest.approx(64.0)

    @pytest.mark.parametrize("kw", [
        {"dim": 4}, {"dim": 0}, {"sites_per_axis": 10},
        {"sites_per_axis": 4}, {"spacing": 0.0}, {"spacing": -1.0},
        {"spacing": float("nan")}, {"spacing": 1e300},
        {"dim": 3, "spacing": 1e103}, {"dim": 3, "spacing": 1e-153},
    ])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(InvalidInputError):
            LatticeSpec(**{"dim": 1, "sites_per_axis": 8, "spacing": 1.0, **kw})

    def test_total_site_guard(self):
        LatticeSpec(dim=3, sites_per_axis=256)  # exactly 2^24 sites
        with pytest.raises(InvalidInputError):
            LatticeSpec(dim=3, sites_per_axis=512)

    def test_wavenumbers_fold_nyquist_positive(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8, spacing=1.0)
        k = lat.axis_wavenumbers()
        expect = 2.0 * math.pi / 8.0 * np.array([0, 1, 2, 3, 4, -3, -2, -1])
        assert np.allclose(k, expect, rtol=0, atol=1e-15)

    def test_mode_indices_signed(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8)
        assert lat.axis_mode_indices() == [0, 1, 2, 3, 4, -3, -2, -1]

    def test_mode_magnitudes_radial(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8, spacing=2.0)
        mags = lat.mode_magnitudes()
        unit = 2.0 * math.pi / 16.0
        assert mags[0, 0] == 0.0
        assert mags[1, 2] == pytest.approx(unit * math.sqrt(5.0), rel=1e-15)


class TestFieldConfiguration:
    LAT = LatticeSpec(dim=1, sites_per_axis=8, spacing=0.5)

    def test_shape_checked(self):
        with pytest.raises(InvalidInputError):
            FieldConfiguration(self.LAT, np.zeros(7))

    def test_finiteness_checked(self):
        values = np.zeros(8)
        values[3] = float("inf")
        with pytest.raises(InvalidInputError):
            FieldConfiguration(self.LAT, values)

    def test_zero_mode_is_scaled_site_sum(self):
        values = np.arange(8.0)
        cfg = FieldConfiguration(self.LAT, values)
        assert cfg.modes()[0] == pytest.approx(0.5 * values.sum(), rel=1e-15)


class TestMomentContract:
    def test_expected_power_frozen_reference(self):
        # D=1, N=64, a=1, quantum vacuum, m=1: V/(2 c(0)) = 64/2 = 32
        lat = LatticeSpec(dim=1, sites_per_axis=64, spacing=1.0)
        assert expected_power(VACUUM, lat)[0] == pytest.approx(32.0, rel=1e-15)

    @pytest.mark.parametrize("density", [VACUUM, THERMAL, CLASSICAL])
    def test_every_mode_within_five_stderr_1d(self, density):
        lat = LatticeSpec(dim=1, sites_per_axis=16, spacing=0.7)
        est = power_spectrum(FieldConfiguration(lat, v)
                             for v in sample_array(density, lat, seed=31531, n=4000))
        expect = expected_power(density, lat)
        z = np.abs(est.mean - expect) / est.stderr
        assert est.count == 4000
        assert np.all(z < 5.0)

    def test_every_mode_within_five_stderr_2d(self):
        lat = LatticeSpec(dim=2, sites_per_axis=16, spacing=1.0)
        est = power_spectrum(FieldConfiguration(lat, v)
                             for v in sample_array(VACUUM, lat, seed=31541, n=3000))
        expect = expected_power(VACUUM, lat)
        z = np.abs(est.mean - expect) / est.stderr
        assert np.all(z < 5.0)

    def test_every_mode_within_five_stderr_3d(self):
        lat = LatticeSpec(dim=3, sites_per_axis=8, spacing=0.8)
        acc = SpectrumAccumulator(lat)
        for chunk in sample_chunks(THERMAL, lat, seed=31551, n=3000):
            acc.add(chunk)
        est = acc.finalize()
        z = np.abs(est.mean - expected_power(THERMAL, lat)) / est.stderr
        assert np.all(z < 5.0)

    def test_spatial_mean_of_samples_is_unbiased_zero(self):
        lat = LatticeSpec(dim=1, sites_per_axis=32)
        fields = sample_array(VACUUM, lat, seed=900, n=2000)
        zero_modes = fields.sum(axis=1)  # a=1: phi~_0 per sample
        se = zero_modes.std(ddof=1) / math.sqrt(len(zero_modes))
        assert abs(zero_modes.mean()) < 5.0 * se

    def test_sampled_spectrum_is_hermitian(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        cfg = FieldConfiguration(lat, sample_array(VACUUM, lat, seed=5, n=1)[0])
        modes = cfg.modes()
        rev = (8 - np.arange(8)) % 8
        mirrored = np.conj(modes[np.ix_(rev, rev)])
        assert np.allclose(modes, mirrored, rtol=1e-12, atol=1e-12)

    def test_smeared_sample_is_gaussian_by_kurtosis(self):
        lat = LatticeSpec(dim=1, sites_per_axis=32)
        f = np.cos(2.0 * math.pi * 3.0 * np.arange(32) / 32.0)
        xs = np.array([
            smear(FieldConfiguration(lat, v), f)
            for v in sample_array(THERMAL, lat, seed=77, n=4000)
        ])
        centered = xs - xs.mean()
        m2 = np.mean(centered**2)
        excess = np.mean(centered**4) / m2**2 - 3.0
        assert abs(excess) < 5.0 * math.sqrt(24.0 / len(xs))

    def test_equipartition_of_classical_energy(self):
        # E[H_C] = N kT / 2 under the classical equilibrium density
        lat = LatticeSpec(dim=1, sites_per_axis=64)
        energies = np.array([
            hamiltonian_classical(FieldConfiguration(lat, v), NATURAL)
            for v in sample_array(CLASSICAL, lat, seed=1601, n=2000)
        ])
        se = energies.std(ddof=1) / math.sqrt(len(energies))
        assert abs(energies.mean() - 32.0) < 5.0 * se


class TestDeterminism:
    LAT = LatticeSpec(dim=1, sites_per_axis=32)

    def test_worker_count_does_not_change_bytes(self):
        n = 2 * BLOCK_SIZE + 37  # two whole blocks and a partial third
        one = sample_array(VACUUM, self.LAT, seed=42, n=n, workers=1)
        for workers in (2, 3):
            many = sample_array(VACUUM, self.LAT, seed=42, n=n, workers=workers)
            assert one.tobytes() == many.tobytes()

    def test_prefix_crosses_block_boundary(self):
        short = sample_array(VACUUM, self.LAT, seed=42, n=BLOCK_SIZE + 1)
        long = sample_array(VACUUM, self.LAT, seed=42, n=3 * BLOCK_SIZE,
                            workers=2)
        assert short.tobytes() == long[:BLOCK_SIZE + 1].tobytes()

    def test_chunk_size_does_not_change_bytes(self, monkeypatch):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        row_bytes = 8 * lat.total_sites
        n = 2 * BLOCK_SIZE + 37
        default = sample_array(THERMAL, lat, seed=7, n=n)
        for rows in (1, 7):
            monkeypatch.setattr(sampler, "_CHUNK_BYTES", rows * row_bytes)
            chunks = list(sample_chunks(THERMAL, lat, seed=7, n=n, workers=2))
            assert max(len(c.values) for c in chunks) == rows
            assert [c.start for c in chunks] == sorted(c.start for c in chunks)
            drawn = np.concatenate([c.values for c in chunks])
            assert drawn.tobytes() == default.tobytes()

    def test_chunks_respect_the_byte_bound(self, monkeypatch):
        lat = LatticeSpec(dim=3, sites_per_axis=16)
        monkeypatch.setattr(sampler, "_CHUNK_BYTES", 100_000)
        chunks = list(sample_chunks(THERMAL, lat, seed=3, n=20))
        assert sum(len(c.values) for c in chunks) == 20
        assert all(c.values.nbytes <= 100_000 for c in chunks)

    def test_many_threads_keep_order_and_surface_errors(self, monkeypatch):
        lat = LatticeSpec(dim=1, sites_per_axis=8)
        n = 8 * BLOCK_SIZE + 5
        monkeypatch.setattr(sampler, "_CHUNK_BYTES", 64 * 8 * lat.total_sites)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial = sample_array(VACUUM, lat, seed=4, n=n)
            threaded = sample_array(VACUUM, lat, seed=4, n=n, workers=8)
            assert serial.tobytes() == threaded.tobytes()

            draw = sampler._SpectrumPlan._draw
            calls = []

            def failing_draw(plan, rng, rows):
                calls.append(rows)
                if len(calls) == 6:
                    raise InvalidInputError("draw failed")
                return draw(plan, rng, rows)
            monkeypatch.setattr(sampler._SpectrumPlan, "_draw", failing_draw)
            with pytest.raises(InvalidInputError, match="draw failed"):
                sample_array(VACUUM, lat, seed=4, n=n, workers=8)
        finally:
            sys.setswitchinterval(interval)

    def test_plan_draw_reads_the_block_stream(self):
        plan = sampler._SpectrumPlan(VACUUM, self.LAT, pin_zero_mode=False)
        arr = sample_array(VACUUM, self.LAT, seed=42, n=BLOCK_SIZE + 2)
        for i in (0, BLOCK_SIZE - 1, BLOCK_SIZE + 1):
            assert plan.draw(42, i).tobytes() == arr[i].tobytes()

    def test_samples_are_index_addressed(self):
        # sample i is a pure function of (seed, i): prefixes agree
        short = sample_array(VACUUM, self.LAT, seed=42, n=3)
        long = sample_array(VACUUM, self.LAT, seed=42, n=10)
        assert short.tobytes() == long[:3].tobytes()

    def test_seed_changes_output(self):
        a = sample_array(VACUUM, self.LAT, seed=1, n=2)
        b = sample_array(VACUUM, self.LAT, seed=2, n=2)
        assert a.tobytes() != b.tobytes()

    def test_pin_flag_is_noop_for_positive_mass(self):
        plain = sample_array(VACUUM, self.LAT, seed=9, n=4)
        pinned = sample_array(VACUUM, self.LAT, seed=9, n=4, pin_zero_mode=True)
        assert plain.tobytes() == pinned.tobytes()

    @pytest.mark.parametrize("bad", [0, -3])
    def test_sample_count_validated(self, bad):
        with pytest.raises(InvalidInputError):
            sample_array(VACUUM, self.LAT, seed=1, n=bad)

    def test_worker_count_validated(self):
        with pytest.raises(InvalidInputError):
            sample_array(VACUUM, self.LAT, seed=1, n=1, workers=0)

    def test_worker_count_above_max_refused(self):
        with pytest.raises(InvalidInputError, match="MAX_WORKERS = 64"):
            sample_chunks(VACUUM, self.LAT, seed=1, n=1, workers=sampler.MAX_WORKERS + 1)
        # accepted, and not iterated, so no thread is started
        sample_chunks(VACUUM, self.LAT, seed=1, n=1, workers=sampler.MAX_WORKERS)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, bad):
        with pytest.raises(InvalidInputError, match=str(bad)):
            sample_chunks(VACUUM, self.LAT, seed=bad, n=1)


class TestGoldenStreams:
    """sha256 of small binary sample streams, pinned so that any change to
    the stream format or to the draw is deliberate."""

    N_SAMPLES = BLOCK_SIZE + 3

    @pytest.mark.parametrize("dim,sites,digest", [
        (1, 16, "76e83c458b325988503f4f10e3a804b88042ab13fa9dd35fd18c48d3582bfbb0"),
        (2, 8, "eb19bbe11279fa49d88757105518f5f7d407fc6b0ebeb30054c49c9fed5b8bcf"),
        (3, 8, "2a1776679809a24b3212473109995222d9fd93e3a2b1a17a42611b6deaed10e0"),
    ], ids=["d1", "d2", "d3"])
    def test_digest(self, dim, sites, digest):
        lat = LatticeSpec(dim=dim, sites_per_axis=sites, spacing=0.5)
        buf = io.BytesIO()
        write_samples_binary(buf, lat, sample_array(THERMAL, lat, seed=2026,
                                                    n=self.N_SAMPLES))
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest

    @pytest.mark.parametrize("density,dim,sites,pin,samples_digest,spectrum_digest", [
        (THERMAL, 1, 16, False,
         "4a041887d38e9e9cb69378a679ce34e1732625346acc39fb96b6bc64f8593740",
         "0cbd3ec6e7188c08e48bd2af8a12fd1e5a4ca1bac9df7abbe48898325458a64b"),
        (THERMAL, 2, 8, False,
         "bc438448f356e9cdf411c52f9b7ffed4aad5b0a6deb6227fe2c9001850f358df",
         "de56e62fd8fe6be22700880939b23270e27bccf14280aec08708643ef17de191"),
        (THERMAL, 3, 8, False,
         "3d9be849cfbb2310e14afd3c5b1cb3724c1e7097f9700d9c231aae55953d2dd4",
         "2fc2fc1fa0f804d93e40e568ef452f6537efa55b68b79557e24c737ebf1c0b3d"),
        # massless classical: the pinned zero mode's expected column holds 0
        (SpectralDensity(Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants(mass=0.0)),
         2, 8, True,
         "b430f5871073b2766304ebc6cb266c104ed2e183aa85e6645d9827cbf975f950",
         "b7c7caf545bebfc42e0aad56dec376b2cda94466f120f7aec329349a9c6a2710"),
    ], ids=["thermal_d1", "thermal_d2", "thermal_d3", "massless_pinned_d2"])
    def test_csv_digests(self, density, dim, sites, pin, samples_digest,
                         spectrum_digest):
        """The samples and spectrum CSVs of a stream, written chunk by chunk
        as ``kgf sample`` writes them."""
        lat = LatticeSpec(dim=dim, sites_per_axis=sites, spacing=0.5)
        buf = io.StringIO()
        write = sampler.samples_writer(buf, lat, "csv")
        acc = SpectrumAccumulator(lat)
        for chunk in sample_chunks(density, lat, seed=2026, n=self.N_SAMPLES,
                                   pin_zero_mode=pin):
            write(chunk.start, chunk.values)
            acc.add(chunk)
        spectrum = spectrum_csv(acc.finalize(),
                                expected_power(density, lat, pin_zero_mode=pin))
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == samples_digest
        assert hashlib.sha256(spectrum.encode()).hexdigest() == spectrum_digest


class TestDegenerateModes:
    def test_massless_classical_zero_mode_raises(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        massless = SpectralDensity(
            Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants(mass=0.0))
        with pytest.raises(DegenerateModeError) as err:
            sample_array(massless, lat, seed=3, n=1)
        assert err.value.mode == (0, 0)
        assert err.value.coefficient == 0.0

    def test_pinning_silences_and_zeroes_the_mode(self):
        lat = LatticeSpec(dim=1, sites_per_axis=16)
        massless = SpectralDensity(
            Ensemble.CLASSICAL_EQUILIBRIUM, PhysicalConstants(mass=0.0))
        fields = sample_array(massless, lat, seed=3, n=8, pin_zero_mode=True)
        scale = np.abs(fields).max()
        assert np.all(np.abs(fields.sum(axis=1)) < 1e-12 * scale)
        assert expected_power(massless, lat, pin_zero_mode=True)[0] == 0.0

    @pytest.mark.parametrize("dim, index, mode", [
        (1, (5,), (-3,)),
        (1, (4,), (4,)),
        (2, (6, 4), (-2, 4)),
        (3, (0, 7, 3), (0, -1, 3)),
    ], ids=["d1_fft5", "d1_nyquist", "d2_fft6_4", "d3_fft0_7_3"])
    def test_error_names_the_signed_mode(self, monkeypatch, dim, index, mode):
        """A non-positive coefficient at FFT index ``index`` of an N = 8
        lattice is reported at its signed mode, Nyquist as +N/2."""
        coefficient = sampler.spectral_coefficient

        def negative_at_index(density, kmag):
            c = coefficient(density, kmag)
            c[index] = -1.0
            return c
        monkeypatch.setattr(sampler, "spectral_coefficient", negative_at_index)
        lat = LatticeSpec(dim=dim, sites_per_axis=8)
        with pytest.raises(DegenerateModeError) as err:
            sample_chunks(THERMAL, lat, seed=3, n=1)
        assert err.value.mode == mode
        assert err.value.coefficient == -1.0


class TestModeScaleRatio:
    @pytest.mark.parametrize("ensemble, dim, n, spacing, mass, pin", [
        (Ensemble.QUANTUM_VACUUM, 3, 8, 1e-20, 1.0, False),         # 2.3e10
        (Ensemble.CLASSICAL_EQUILIBRIUM, 1, 64, 1.0, 1e-9, False),  # 3.1e9
        (Ensemble.CLASSICAL_EQUILIBRIUM, 3, 64, 1.0, 0.01, False),  # 540
        (Ensemble.CLASSICAL_EQUILIBRIUM, 1, 256, 1.0, 0.0, True),   # 128
    ])
    def test_spread_within_the_bound_is_sampled(self, ensemble, dim, n, spacing,
                                                mass, pin):
        density = SpectralDensity(ensemble, PhysicalConstants(mass=mass))
        lat = LatticeSpec(dim=dim, sites_per_axis=n, spacing=spacing)
        sampler.sample_chunks(density, lat, seed=1, n=1, pin_zero_mode=pin)

    def test_spread_past_the_bound_refused_before_drawing(self, monkeypatch):
        # spacing 2e-51 at mass 1: the zero mode's scale is 5.2e25 times
        # the others', which would all round away in the site sums
        def no_draw(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(sampler._SpectrumPlan, "block_chunks", no_draw)
        lat = LatticeSpec(dim=3, sites_per_axis=8, spacing=2e-51)
        with pytest.raises(InvalidInputError,
                           match="spacing 2e-51 and mass 1.0 .*5.2e\\+25.*"
                                 "MAX_MODE_SCALE_RATIO"):
            sampler.sample_chunks(VACUUM, lat, seed=1, n=1)


class TestSmearing:
    LAT = LatticeSpec(dim=1, sites_per_axis=32, spacing=0.25)

    def test_delta_smear_reads_site_value(self):
        cfg = FieldConfiguration(self.LAT, sample_array(VACUUM, self.LAT, seed=11, n=1)[0])
        f = np.zeros(32)
        f[5] = 1.0 / self.LAT.spacing  # lattice delta at site 5
        assert smear(cfg, f) == pytest.approx(cfg.values[5], rel=1e-13)

    def test_shape_mismatch_rejected(self):
        cfg = FieldConfiguration(self.LAT, sample_array(VACUUM, self.LAT, seed=11, n=1)[0])
        with pytest.raises(InvalidInputError):
            smear(cfg, np.zeros(16))
        with pytest.raises(InvalidInputError):
            smear_variance(VACUUM, self.LAT, np.zeros(16))

    def test_cosine_mode_variance_closed_form(self):
        # f = cos(k_j x): Var X[f] = V / (4 c(k_j))
        j = 3
        lat = self.LAT
        x = lat.spacing * np.arange(32)
        kj = 2.0 * math.pi * j / (32 * lat.spacing)
        f = np.cos(kj * x)
        got = smear_variance(THERMAL, lat, f)
        from kgf.spectra import spectral_coefficient
        expect = lat.volume / (4.0 * spectral_coefficient(THERMAL, kj))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_smear_variance_matches_monte_carlo(self):
        lat = self.LAT
        x = lat.spacing * np.arange(32)
        f = np.exp(-0.5 * ((x - 4.0) / 1.3) ** 2)
        target = smear_variance(THERMAL, lat, f)
        xs = np.array([
            smear(FieldConfiguration(lat, v), f)
            for v in sample_array(THERMAL, lat, seed=2024, n=4000)
        ])
        var = xs.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(xs) - 1))
        assert abs(var - target) < 5.0 * se


class TestEnergyFunctionals:
    LAT = LatticeSpec(dim=1, sites_per_axis=16, spacing=0.5)

    def test_zero_field_has_zero_energy(self):
        cfg = FieldConfiguration(self.LAT, np.zeros(16))
        assert hamiltonian_classical(cfg, NATURAL) == 0.0

    def test_single_mode_energies(self):
        # phi = A cos(k_j x): H_C = A^2 V omega^2 / 4
        j, amp = 2, 0.8
        lat = self.LAT
        cfg = cosine_config(lat, j, amp)
        kj = 2.0 * math.pi * j / (16 * lat.spacing)
        omega = math.hypot(kj, NATURAL.mass)
        v = lat.volume
        assert hamiltonian_classical(cfg, NATURAL) == pytest.approx(
            amp**2 * v * omega**2 / 4.0, rel=1e-12
        )


class TestAccumulator:
    LAT = LatticeSpec(dim=1, sites_per_axis=16)

    def configs(self, seed, n):
        return [FieldConfiguration(self.LAT, v)
                for v in sample_array(VACUUM, self.LAT, seed=seed, n=n)]

    def test_chunk_accumulation_matches_per_configuration_updates(self):
        n = BLOCK_SIZE + 9
        per_cfg = power_spectrum(FieldConfiguration(self.LAT, v)
                                 for v in sample_array(THERMAL, self.LAT, seed=58, n=n))
        acc = SpectrumAccumulator(self.LAT)
        for chunk in sample_chunks(THERMAL, self.LAT, seed=58, n=n, workers=2):
            acc.add(chunk)
        chunked = acc.finalize()
        assert chunked.count == per_cfg.count == n
        assert np.allclose(chunked.mean, per_cfg.mean, rtol=1e-12)
        assert np.allclose(chunked.stderr, per_cfg.stderr, rtol=1e-10)

    @pytest.mark.parametrize("dim,sites", [(1, 16), (2, 8), (3, 8)])
    def test_chunk_power_is_the_full_fft_power(self, dim, sites):
        lat = LatticeSpec(dim=dim, sites_per_axis=sites, spacing=0.6)
        chunk = next(sample_chunks(VACUUM, lat, seed=59, n=5))
        acc = SpectrumAccumulator(lat)
        acc.add(chunk)
        full = np.mean([np.abs(FieldConfiguration(lat, v).modes()) ** 2
                        for v in chunk.values], axis=0)
        assert np.allclose(acc.finalize().mean, full, rtol=1e-12, atol=0)

    def test_mode_sums_match_hamiltonian_classical(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8, spacing=0.7)
        chunk = next(sample_chunks(CLASSICAL, lat, seed=60, n=6))
        omega_sq = lat.mode_magnitudes() ** 2 + NATURAL.mass**2
        got = chunk.mode_sums(0.5 * omega_sq)
        want = [hamiltonian_classical(FieldConfiguration(lat, v), NATURAL)
                for v in chunk.values]
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_needs_two_samples(self):
        acc = SpectrumAccumulator(self.LAT)
        with pytest.raises(InvalidInputError):
            acc.finalize()
        acc.update(self.configs(57, 1)[0])
        with pytest.raises(InvalidInputError):
            acc.finalize()

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            power_spectrum([])

    def test_mixed_lattice_rejected(self):
        other = LatticeSpec(dim=1, sites_per_axis=32)
        acc = SpectrumAccumulator(self.LAT)
        with pytest.raises(InvalidInputError):
            acc.update(FieldConfiguration(other, sample_array(VACUUM, other, seed=1, n=1)[0]))
        with pytest.raises(InvalidInputError):
            acc.add(next(sample_chunks(VACUUM, other, seed=1, n=1)))


def naive_samples_csv(lattice, samples):
    """Reference writer: index columns formatted anew on every row."""
    cols = ",".join(f"site_index_{d}" for d in range(lattice.dim))
    out = [f"sample,{cols},value\n"]
    for s, values in enumerate(samples):
        for site, value in zip(np.ndindex(lattice.shape), values.reshape(-1)):
            idx = ",".join(str(i) for i in site)
            out.append(f"{s},{idx},{value:.17g}\n")
    return "".join(out)


def naive_spectrum_csv(estimate, expected):
    """Reference writer: index columns formatted anew on every row, from
    numpy's FFT frequencies (Nyquist folded to +N/2)."""
    lat = estimate.lattice
    cols = ",".join(f"k_index_{d}" for d in range(lat.dim))
    out = [f"{cols},mean,stderr,count,expected\n"]
    n = lat.sites_per_axis
    j = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    j[n // 2] = abs(j[n // 2])
    grids = np.meshgrid(*[j] * lat.dim, indexing="ij")
    signed = np.stack(grids, axis=-1).reshape(-1, lat.dim)
    mean, stderr = estimate.mean.reshape(-1), estimate.stderr.reshape(-1)
    expect = np.asarray(expected).reshape(-1)
    for row in range(signed.shape[0]):
        idx = ",".join(str(int(v)) for v in signed[row])
        out.append(f"{idx},{mean[row]:.17g},{stderr[row]:.17g},"
                   f"{estimate.count},{expect[row]:.17g}\n")
    return "".join(out)


class TestFileFormats:
    @pytest.mark.parametrize("dim,sites", [(1, 16), (2, 8), (3, 8)])
    def test_writers_match_naive_per_row_writers(self, dim, sites):
        lat = LatticeSpec(dim=dim, sites_per_axis=sites, spacing=0.5)
        samples = sample_array(THERMAL, lat, seed=16, n=3)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        assert buf.getvalue() == naive_samples_csv(lat, samples)
        est = power_spectrum(FieldConfiguration(lat, v) for v in samples)
        expected = expected_power(THERMAL, lat)
        assert spectrum_csv(est, expected) == naive_spectrum_csv(est, expected)

    EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, 2.5])

    def test_spectrum_writer_keeps_signed_zeros_and_subnormals(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        rng = np.random.default_rng(20)
        mean, stderr, expected = (
            rng.choice(self.EDGE_VALUES, size=lat.shape) for _ in range(3))
        mean[0, :4] = [0.0, -0.0, 5e-324, 0.0]
        est = sampler.SpectrumEstimate(lat, mean, stderr, count=3)
        text = spectrum_csv(est, expected)
        assert text == naive_spectrum_csv(est, expected)
        assert "0,0,0," in text and "0,1,-0," in text and "0,2,4.9406564584124654e-324," in text

    def test_samples_writer_keeps_signed_zeros_and_extremes(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        samples = np.random.default_rng(21).choice(self.EDGE_VALUES,
                                                   size=(3,) + lat.shape)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        assert buf.getvalue() == naive_samples_csv(lat, samples)
        assert ",-0\n" in buf.getvalue() and ",1e+308\n" in buf.getvalue()

    def test_multi_chunk_d3_stream_matches_naive_writers(self):
        lat = LatticeSpec(dim=3, sites_per_axis=16, spacing=0.5)
        chunks = list(sample_chunks(THERMAL, lat, seed=22, n=40))
        assert len(chunks) >= 2
        buf = io.StringIO()
        write = sampler.samples_writer(buf, lat, "csv")
        acc = SpectrumAccumulator(lat)
        for chunk in chunks:
            write(chunk.start, chunk.values)
            acc.add(chunk)
        samples = np.concatenate([c.values for c in chunks])
        assert buf.getvalue() == naive_samples_csv(lat, samples)
        est, expected = acc.finalize(), expected_power(THERMAL, lat)
        assert spectrum_csv(est, expected) == naive_spectrum_csv(est, expected)

    # 1 and 7 split an axis; 64 and 130 keep whole trailing axes and take
    # one or two first-axis indices per slab in D=3
    @pytest.mark.parametrize("slab_rows", [1, 7, 64, 130])
    @pytest.mark.parametrize("dim,sites", [(1, 16), (2, 8), (3, 8)])
    def test_slab_size_does_not_change_bytes(self, monkeypatch, slab_rows,
                                             dim, sites):
        lat = LatticeSpec(dim=dim, sites_per_axis=sites, spacing=0.5)
        samples = sample_array(THERMAL, lat, seed=23, n=3)
        est = power_spectrum(FieldConfiguration(lat, v) for v in samples)
        expected = expected_power(THERMAL, lat)
        monkeypatch.setattr(sampler, "_CSV_SLAB_ROWS", slab_rows)
        slabs, format_17g = [], sampler._format_17g  # rows per formatted slab
        monkeypatch.setattr(sampler, "_format_17g",
                            lambda values: slabs.append(len(values)) or format_17g(values))
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        assert buf.getvalue() == naive_samples_csv(lat, samples)
        assert sum(slabs) == samples.size and max(slabs) <= slab_rows
        slabs.clear()
        assert spectrum_csv(est, expected) == naive_spectrum_csv(est, expected)
        assert sum(slabs) == lat.total_sites and max(slabs) <= slab_rows

    def test_spectrum_writer_refuses_a_short_column(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8)
        est = power_spectrum(FieldConfiguration(lat, v)
                             for v in sample_array(VACUUM, lat, seed=24, n=3))
        with pytest.raises(InvalidInputError):
            spectrum_csv(est, expected_power(VACUUM, lat)[:-1])

    def test_chunked_csv_writes_equal_one_write(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        samples = sample_array(VACUUM, lat, seed=17, n=5)
        whole, parts = io.StringIO(), io.StringIO()
        write_samples_csv(whole, lat, samples)
        write = sampler.samples_writer(parts, lat, "csv")
        write(0, samples[:2])
        write(2, samples[2:])
        assert parts.getvalue() == whole.getvalue()

    def test_csv_round_trip_1d(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8, spacing=0.5)
        samples = sample_array(VACUUM, lat, seed=12, n=3)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        buf.seek(0)
        dim, n, back = read_samples_csv(buf)
        assert (dim, n) == (1, 8)
        assert back.tobytes() == samples.tobytes()  # 17g survives round trip

    def test_csv_round_trip_2d(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        samples = sample_array(VACUUM, lat, seed=13, n=2)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        text = buf.getvalue()
        assert text.startswith("sample,site_index_0,site_index_1,value\n")
        assert len(text.strip().split("\n")) == 1 + 2 * 64
        dim, n, back = read_samples_csv(io.StringIO(text))
        assert (dim, n) == (2, 8)
        assert np.array_equal(back, samples)

    def test_csv_round_trip_3d(self):
        lat = LatticeSpec(dim=3, sites_per_axis=8)
        samples = sample_array(THERMAL, lat, seed=18, n=2)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        buf.seek(0)
        dim, n, back = read_samples_csv(buf)
        assert (dim, n) == (3, 8)
        assert back.tobytes() == samples.tobytes()

    def test_csv_header_validated(self):
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO("x,y\n"))

    @pytest.mark.parametrize("header", [
        "sample,value", "sample,site_index_0,site_index_1",
        "sample,i,value", "sample,site_index_1,value",
    ])
    def test_csv_header_names_checked(self, header):
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO(f"{header}\n0,0,1.0\n"))

    @pytest.mark.parametrize("row", ["0,1,2,3.5", "0,1.5,3.5", "0,1,abc"])
    def test_csv_bad_row_rejected(self, row):
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO(f"sample,site_index_0,value\n{row}\n"))

    def test_csv_needs_data(self):
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO("sample,site_index_0,value\n"))

    @pytest.mark.parametrize("text", [
        "sample,site_index_0,value\n1,0,1.0\n1,1,2.0\n0,0,3.0\n0,1,4.0\n",
        "sample,site_index_0,site_index_1,value\n0,0,0,1.0\n0,0,1,2.0\n",
    ], ids=["samples_out_of_order_1d", "last_axis_beyond_first_2d"])
    def test_csv_rows_out_of_writer_order_rejected(self, text):
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO(text))

    @pytest.mark.parametrize("edit", ["drop", "swap"])
    def test_csv_dropped_or_swapped_row_rejected(self, edit):
        lat = LatticeSpec(dim=2, sites_per_axis=8)
        buf = io.StringIO()
        write_samples_csv(buf, lat, sample_array(VACUUM, lat, seed=19, n=2))
        lines = buf.getvalue().splitlines(keepends=True)
        if edit == "drop":
            del lines[70]
        else:
            lines[2], lines[9] = lines[9], lines[2]
        with pytest.raises(InvalidInputError):
            read_samples_csv(io.StringIO("".join(lines)))

    def test_binary_round_trip(self):
        lat = LatticeSpec(dim=2, sites_per_axis=8, spacing=0.25)
        samples = sample_array(THERMAL, lat, seed=14, n=3)
        buf = io.BytesIO()
        write_samples_binary(buf, lat, samples)
        raw = buf.getvalue()
        assert raw[:4] == BINARY_MAGIC
        assert len(raw) == 4 + 8 + 8 + 8 + samples.size * 8
        back_lat, back = read_samples_binary(io.BytesIO(raw))
        assert back_lat == lat
        assert back.tobytes() == samples.tobytes()

    def test_binary_bad_magic(self):
        with pytest.raises(InvalidInputError):
            read_samples_binary(io.BytesIO(b"NOPE" + b"\x00" * 32))

    def test_binary_ragged_payload(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8)
        buf = io.BytesIO()
        write_samples_binary(buf, lat, np.zeros((1, 8)))
        raw = buf.getvalue()[:-8]  # drop one value
        with pytest.raises(InvalidInputError):
            read_samples_binary(io.BytesIO(raw))

    @pytest.mark.parametrize("keep", [0, 4, 12, 27])
    def test_binary_truncated_header_rejected(self, keep):
        buf = io.BytesIO()
        write_samples_binary(buf, LatticeSpec(dim=1, sites_per_axis=8), np.zeros((1, 8)))
        match = "bad magic" if keep < 4 else f"header truncated: {keep} of 28 bytes"
        with pytest.raises(InvalidInputError, match=match):
            read_samples_binary(io.BytesIO(buf.getvalue()[:keep]))

    @pytest.mark.parametrize("cut, match", [(28, "no samples"), (29, "whole number")])
    def test_binary_header_without_whole_samples_rejected(self, cut, match):
        buf = io.BytesIO()
        write_samples_binary(buf, LatticeSpec(dim=1, sites_per_axis=8), np.zeros((1, 8)))
        with pytest.raises(InvalidInputError, match=match):
            read_samples_binary(io.BytesIO(buf.getvalue()[:cut]))

    def test_spectrum_csv_layout(self):
        lat = LatticeSpec(dim=1, sites_per_axis=8)
        est = power_spectrum(FieldConfiguration(lat, v)
                             for v in sample_array(VACUUM, lat, seed=15, n=5))
        text = spectrum_csv(est, expected_power(VACUUM, lat))
        lines = text.strip().split("\n")
        assert lines[0] == "k_index_0,mean,stderr,count,expected"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[3]) == 5
        assert float(first[4]) == pytest.approx(4.0)  # V/(2 c(0)) = 8/2
        indices = [int(l.split(",")[0]) for l in lines[1:]]
        assert indices == [0, 1, 2, 3, 4, -3, -2, -1]


class TestFormat17g:
    """The numpy ``%.17g`` formatter of the CSV writers, refereed by Python's
    own ``%`` on a corpus aimed at its edges."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(25)
        powers = 10.0 ** np.arange(-10, 20)
        boundaries = np.array([1e-4, 1e17])
        rounded = np.round(rng.standard_normal(20_000) * 10.0 ** rng.integers(-3, 12, 20_000),
                           3)
        parts = [
            rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(float),
            np.array([0.0, 5e-324, np.inf, np.nan, 2.2250738585072014e-308]),
            np.exp(rng.uniform(math.log(1e-8), math.log(1e18), 60_000)),
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.floor(rng.uniform(1e15, 9e15, 10_000)) + rng.choice([0.25, 0.75], 10_000),
            rounded / 10.0 ** rng.integers(0, 8, 20_000),
            boundaries, np.nextafter(boundaries, 0.0), np.nextafter(boundaries, np.inf),
        ]
        values = np.concatenate(parts)
        return np.concatenate([values, -values])

    def test_matches_python_percent_format(self):
        values = self.corpus()
        texts = sampler._format_17g(values.reshape(2, -1))
        assert texts.dtype == np.dtype("S24") and texts.shape == values.shape
        assert texts.tolist() == [b"%.17g" % v for v in values.tolist()]

    def test_fixed_notation_takes_the_numpy_path(self):
        # the fallback alone would also match Python: check that the fast
        # path writes the values that print in fixed notation
        rng = np.random.default_rng(26)
        x = np.exp(rng.uniform(math.log(1e-4), math.log(1e17), 5000)) * rng.choice([-1, 1], 5000)
        lanes = np.zeros((x.size, 3), dtype=np.uint64)
        done = sampler._fixed_notation(x, lanes)
        assert done.mean() > 0.99
        texts = lanes.view("S24").reshape(-1)[done].tolist()
        assert texts == [b"%.17g" % v for v in x[done].tolist()]
        assert not sampler._fixed_notation(np.array([0.0, 1e17, 9e-5, np.nan]),
                                           np.zeros((4, 3), dtype=np.uint64)).any()

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_exponent_estimate_one_off_falls_back(self, monkeypatch, shift):
        # a log10 one off near a power of ten must not reach the digits
        rng = np.random.default_rng(28)
        x = np.exp(rng.uniform(math.log(1e-4), math.log(1e17), 5000)) * rng.choice([-1, 1], 5000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
        assert sampler._format_17g(x).tolist() == [b"%.17g" % v for v in x.tolist()]


class TestSamplesWriterChunks:
    """``samples_writer`` refuses a chunk that is not the next samples of its
    lattice, in both formats, and writes nothing for it."""

    LAT = LatticeSpec(dim=1, sites_per_axis=8)

    @staticmethod
    def stream(fmt):
        return io.StringIO() if fmt == "csv" else io.BytesIO()

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("shape", [(1, 16), (1, 4), (8,), (), (1, 8, 1), (2, 2, 4)],
                             ids=["too_wide", "too_narrow", "one_sample_unstacked",
                                  "scalar", "extra_axis", "same_size_other_shape"])
    def test_wrong_shape_refused(self, fmt, shape):
        buf = self.stream(fmt)
        write = sampler.samples_writer(buf, self.LAT, fmt)
        header = buf.getvalue()
        with pytest.raises(InvalidInputError, match="does not hold samples"):
            write(0, np.zeros(shape))
        assert buf.getvalue() == header

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_start_must_be_the_next_sample(self, fmt):
        buf = self.stream(fmt)
        write = sampler.samples_writer(buf, self.LAT, fmt)
        with pytest.raises(InvalidInputError, match="next sample 0"):
            write(1, np.zeros((1, 8)))
        write(0, np.zeros((2, 8)))
        written = buf.getvalue()
        for start in (0, 1, 3):
            with pytest.raises(InvalidInputError, match="next sample 2"):
                write(start, np.ones((1, 8)))
        assert buf.getvalue() == written
        write(2, np.ones((0, 8)))
        write(2, np.ones((1, 8)))
        whole = self.stream(fmt)
        sampler.samples_writer(whole, self.LAT, fmt)(0, np.r_[np.zeros((2, 8)), np.ones((1, 8))])
        assert buf.getvalue() == whole.getvalue()


class TestReadSamplesCsvSlabs:
    """The reader checks writer order across its slabs of lines, N found in
    a later slab than the first row's."""

    @pytest.mark.parametrize("slab_rows", [1, 3, 7, 64])
    @pytest.mark.parametrize("dim,n", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_round_trip_and_refusals(self, monkeypatch, slab_rows, dim, n):
        monkeypatch.setattr(sampler, "_CSV_READ_ROWS", slab_rows)
        lat = LatticeSpec(dim=dim, sites_per_axis=8)
        samples = sample_array(THERMAL, lat, seed=29, n=n)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        assert read_samples_csv(io.StringIO(buf.getvalue()))[2].tobytes() == samples.tobytes()
        lines = buf.getvalue().splitlines(keepends=True)
        for at in (5, 12)[:len(lines) // 12 + 1]:  # data rows 4 and 11
            for edited in (lines[:at] + lines[at + 1:], lines[:at + 1] + lines[at:],
                           lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:]):
                with pytest.raises(InvalidInputError):
                    read_samples_csv(io.StringIO("".join(edited)))


class TestSpectrumCsvMemory:
    def test_peak_is_one_slab(self):
        lat = LatticeSpec(dim=3, sites_per_axis=64)
        rng = np.random.default_rng(30)
        est = sampler.SpectrumEstimate(lat, rng.random(lat.shape), rng.random(lat.shape),
                                       count=40)
        expected = expected_power(THERMAL, lat)
        with open(os.devnull, "w", encoding="utf-8") as null:
            tracemalloc.start()
            try:
                sampler.write_spectrum_csv(null, est, expected)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 262 k modes: formatting each column's distinct values first peaked
        # at 27.7 MB here; one 4096-row slab at a time peaks at 4.3 MB
        assert peak < 6_000_000


class TestReadSamplesCsvMemory:
    def test_peak_is_the_array_plus_one_slab(self):
        lat = LatticeSpec(dim=2, sites_per_axis=64)
        samples = np.random.default_rng(27).standard_normal((100,) + lat.shape)
        buf = io.StringIO()
        write_samples_csv(buf, lat, samples)
        text = io.StringIO(buf.getvalue())
        tracemalloc.start()
        try:
            dim, n, back = read_samples_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dim, n) == (2, 64) and back.tobytes() == samples.tobytes()
        # 3.3 MB of values; holding the parsed file at once took 5x that
        assert peak < samples.nbytes + 3_000_000
