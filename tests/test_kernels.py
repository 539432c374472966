"""Kernel module: closed-form transforms and quadrature inner products."""

import itertools
import math
import threading
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

import kgf.kernels as K
from kgf.errors import (
    AccuracyError,
    InvalidInputError,
    NumericConsistencyError,
    SizeLimitError,
)
from kgf.kernels import (
    MAX_QUADRATURE_NODES,
    KernelSpec,
    KernelVariant,
    PhysicalConstants,
    QuadratureSpec,
    WavePacket,
    fourier_transform,
    inner_product,
    inner_product_with_diagnostics,
    positivity_check,
)

TWO_PI = 2.0 * math.pi


def quantum(mass=1.0, dim=1, **quad):
    return KernelSpec(
        KernelVariant.QUANTUM,
        PhysicalConstants(mass=mass),
        dim=dim,
        quadrature=QuadratureSpec(**quad) if quad else QuadratureSpec(),
    )


def packet(dim=1, **kw):
    defaults = dict(
        dim=dim,
        center_x=(0.0,) * dim,
        carrier_wavevector=(0.0,) * dim,
    )
    defaults.update(kw)
    return WavePacket(**defaults)


class TestPhysicalConstants:
    def test_defaults_are_natural_units(self):
        c = PhysicalConstants()
        assert (c.hbar, c.kT, c.mass, c.xi) == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kw", [
        {"hbar": 0.0}, {"hbar": -1.0}, {"kT": -0.5}, {"mass": -1e-9},
        {"xi": 0.0}, {"xi": -2.0}, {"hbar": float("nan")},
        {"mass": float("inf")},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InvalidInputError):
            PhysicalConstants(**kw)


class TestWavePacket:
    @pytest.mark.parametrize("kw", [
        {"width_t": 0.0}, {"width_x": -1.0}, {"center_t": float("nan")},
        {"carrier_freq": float("inf")}, {"amplitude": complex("nan")},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InvalidInputError):
            packet(**kw)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            WavePacket(dim=2, center_x=(0.0,), carrier_wavevector=(0.0, 0.0))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_vectors_follow_dim(self, dim):
        f = WavePacket(dim=dim)
        assert f.center_x == (0.0,) * dim
        assert f.carrier_wavevector == (0.0,) * dim


class TestFourierTransform:
    def test_unit_gaussian_at_origin_is_two_pi(self):
        f = packet()
        assert fourier_transform(f, 0.0, np.zeros(1)) == pytest.approx(TWO_PI)

    def test_unit_gaussian_at_k_two(self):
        # spatial factor e^{-sigma^2 k^2 / 2} = e^{-2} at k=2, sigma=1
        f = packet()
        got = fourier_transform(f, 0.0, np.array([2.0]))
        assert got == pytest.approx(TWO_PI * math.exp(-2.0), rel=1e-14)

    def test_carrier_shift_is_translation_in_k(self):
        base = packet()
        shifted = packet(carrier_wavevector=(0.7,))
        k = np.array([1.3])
        assert fourier_transform(shifted, 0.5, k) == pytest.approx(
            fourier_transform(base, 0.5, k - 0.7), rel=1e-14
        )

    def test_frequency_shift_is_translation_in_k0(self):
        base = packet()
        shifted = packet(carrier_freq=0.9)
        assert fourier_transform(shifted, 1.4, np.zeros(1)) == pytest.approx(
            fourier_transform(base, 1.4 - 0.9, np.zeros(1)), rel=1e-14
        )

    def test_center_produces_pure_phase(self):
        centered = packet(center_t=0.8, center_x=(0.5,))
        base = packet()
        k0, k = 0.3, np.array([0.6])
        got = fourier_transform(centered, k0, k)
        expect = fourier_transform(base, k0, k) * np.exp(1j * (k0 * 0.8 - 0.6 * 0.5))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_broadcasts_over_grids(self):
        f = packet(carrier_freq=0.2)
        k = np.linspace(-3, 3, 17).reshape(-1, 1)
        k0 = np.sqrt(k[:, 0] ** 2 + 1.0)
        vals = fourier_transform(f, k0, k)
        assert vals.shape == (17,)
        assert np.all(np.isfinite(vals))


class TestInnerProductAxioms:
    RNG = np.random.default_rng(1905)

    def random_packet(self):
        r = self.RNG
        return packet(
            center_t=r.uniform(-2, 2),
            center_x=(r.uniform(-2, 2),),
            width_t=r.uniform(0.8, 1.8),
            width_x=r.uniform(0.8, 1.8),
            carrier_freq=r.uniform(-2, 2),
            carrier_wavevector=(r.uniform(-2, 2),),
            amplitude=complex(r.uniform(0.3, 1.5), r.uniform(-1, 1)),
        )

    def test_hermiticity_all_variants(self):
        spec_c = dict(constants=PhysicalConstants(mass=1.0, xi=0.5), dim=1)
        for variant in KernelVariant:
            spec = KernelSpec(variant, **spec_c)
            for _ in range(5):
                f, g = self.random_packet(), self.random_packet()
                fg = inner_product(spec, f, g)
                gf = inner_product(spec, g, f)
                scale = abs(inner_product(spec, f, f)) + abs(inner_product(spec, g, g))
                assert abs(fg - gf.conjugate()) <= 1e-8 * scale

    def test_positivity(self):
        spec = quantum()
        for _ in range(10):
            assert positivity_check(spec, self.random_packet()) >= -1e-10

    def test_zero_amplitude_gives_zero(self):
        f = packet(amplitude=0.0)
        assert positivity_check(quantum(), f) == 0.0

    def test_amplitude_scaling_quadruples_norm(self):
        f = self.random_packet()
        spec = quantum()
        doubled = replace(f, amplitude=2.0 * f.amplitude)
        assert positivity_check(spec, doubled) == pytest.approx(
            4.0 * positivity_check(spec, f), rel=1e-12
        )

    def test_sesquilinearity(self):
        spec = quantum()
        f, g = self.random_packet(), self.random_packet()
        alpha, beta = 0.7 - 1.1j, -0.4 + 0.9j
        fg = inner_product(spec, f, g)
        f_alpha = replace(f, amplitude=alpha * f.amplitude)
        g_beta = replace(g, amplitude=beta * g.amplitude)
        assert inner_product(spec, f_alpha, g) == pytest.approx(
            alpha.conjugate() * fg, rel=1e-10, abs=1e-12
        )
        assert inner_product(spec, f, g_beta) == pytest.approx(
            beta * fg, rel=1e-10, abs=1e-12
        )

    @pytest.mark.parametrize("xi", [0.1, 0.5, 0.9])
    def test_xi_scaling(self, xi):
        constants = PhysicalConstants(mass=1.0, xi=xi)
        q = KernelSpec(KernelVariant.QUANTUM, constants, dim=1)
        s = KernelSpec(KernelVariant.XI_SCALED, constants, dim=1)
        f, g = self.random_packet(), self.random_packet()
        fq = inner_product(q, f, g)
        fs = inner_product(s, f, g)
        scale = math.sqrt(
            positivity_check(q, f) * positivity_check(q, g)
        )
        assert abs(fs - xi * fq) <= 1e-12 * xi * scale

    def test_classical_scales_with_kT(self):
        f = self.random_packet()
        one = KernelSpec(KernelVariant.CLASSICAL, PhysicalConstants(kT=1.0), dim=1)
        three = KernelSpec(KernelVariant.CLASSICAL, PhysicalConstants(kT=3.0), dim=1)
        assert positivity_check(three, f) == pytest.approx(
            3.0 * positivity_check(one, f), rel=1e-12
        )


class TestClassicalQuantumCrossover:
    def test_narrow_packet_ratio_extrapolates_to_two(self):
        # E[2/omega] -> 2/omega_0 = 2 as the packet narrows onto k=0;
        # Richardson in h = sigma_k^2 over widths 5, 10, 20 (h ratio 4)
        constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0)
        ratios = []
        for width_x in (5.0, 10.0, 20.0):
            f = packet(width_x=width_x, carrier_freq=1.0)
            q = positivity_check(
                KernelSpec(KernelVariant.QUANTUM, constants, dim=1), f)
            c = positivity_check(
                KernelSpec(KernelVariant.CLASSICAL, constants, dim=1), f)
            ratios.append(c / q)
        r1, r2, r3 = ratios
        assert abs(r3 - 2.0) < abs(r2 - 2.0) < abs(r1 - 2.0)
        e1 = (4.0 * r2 - r1) / 3.0
        e2 = (4.0 * r3 - r2) / 3.0
        final = (16.0 * e2 - e1) / 15.0
        assert final == pytest.approx(2.0, abs=5e-6)


class TestQuadratureBehavior:
    def test_diagnostics_report_small_shift(self):
        f = packet(carrier_freq=0.5)
        g = packet(center_x=(0.4,), carrier_wavevector=(0.8,))
        value, diag = inner_product_with_diagnostics(quantum(), f, g)
        assert diag.relative_shift < 1e-10
        assert value == diag.value
        assert diag.nodes == 256

    def test_check_false_skips_refinement(self):
        f = packet()
        value, diag = inner_product_with_diagnostics(quantum(), f, f, check=False)
        assert diag is None
        assert value.real > 0

    def test_under_resolved_packet_raises_accuracy_error(self):
        # massless D=1: the quantum integrand 1/(2|k|) diverges
        # logarithmically at k=0, so no node count converges, and the
        # doubling check must say so instead of returning a finite value.
        f = packet(width_x=2.0)
        with pytest.raises(AccuracyError) as err:
            inner_product(quantum(mass=0.0), f, f)
        assert err.value.coarse is not None
        assert err.value.refined is not None

    def test_non_finite_estimate_raises_accuracy_error(self):
        # (f, f) ~ 1e400 overflows; a nan shift must not pass the check
        f = packet(amplitude=1e200)
        with pytest.raises(AccuracyError):
            inner_product(quantum(), f, f)

    def test_vanishing_norm_raises_accuracy_error(self):
        # the carrier frequency 1000 lies far off the mass shell inside the
        # cutoff 12: both estimates are exactly 0, which proves nothing
        # about a packet of nonzero amplitude
        f = packet(carrier_freq=1000.0)
        with pytest.raises(AccuracyError, match="found no weight"):
            inner_product(quantum(), f, f)

    def test_massless_even_nodes_is_finite(self):
        f = packet(width_x=2.0)
        value = inner_product(quantum(mass=0.0), f, f, check=False)
        assert math.isfinite(value.real)
        assert value.real > 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cutoff_gives_a_non_finite_estimate(self):
        # the derived cutoff 1e200 + 12 has a square past the float range
        f = packet(dim=2, carrier_wavevector=(1e200, 0.0))
        with pytest.raises(AccuracyError, match="non-finite estimate"):
            inner_product(quantum(dim=2), f, packet(dim=2))

    def test_cutoff_is_that_of_the_further_reaching_packet(self):
        f = packet(width_x=0.9, carrier_wavevector=(0.5,))
        g = packet(width_x=1.6, carrier_wavevector=(2.5,), center_x=(0.3,))
        assert f.suggested_cutoff != g.suggested_cutoff
        for a, b in ((f, g), (g, f)):
            _, diag = inner_product_with_diagnostics(quantum(), a, b)
            assert diag.cutoff == max(f.suggested_cutoff, g.suggested_cutoff)

    def test_node_floor_enforced(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(nodes=8)

    def test_node_ceiling_enforced(self):
        QuadratureSpec(nodes=MAX_QUADRATURE_NODES)
        with pytest.raises(SizeLimitError, match="MAX_QUADRATURE_NODES"):
            QuadratureSpec(nodes=MAX_QUADRATURE_NODES + 1)

    def test_dimension_mismatch_rejected(self):
        f = packet()
        g = packet(dim=2)
        with pytest.raises(InvalidInputError):
            inner_product(quantum(), f, g)

    def test_positivity_check_rejects_complex_norm(self, monkeypatch):
        import kgf.kernels as K

        def crooked(spec, f, g, check=True):
            return 1.0 + 1e-4j, None

        monkeypatch.setattr(K, "inner_product_with_diagnostics", crooked)
        with pytest.raises(NumericConsistencyError):
            positivity_check(quantum(), packet())


class TestDiagonalPasses:
    """A diagonal doubled check is one integral: (f, f) refined is its own scale."""

    @pytest.fixture
    def passes(self, monkeypatch):
        import kgf.kernels as K

        calls = []
        real = K._reduced_integral

        def counted(spec, f, g, nodes, cutoff):
            calls.append((f, g, nodes, cutoff))
            return real(spec, f, g, nodes, cutoff)

        monkeypatch.setattr(K, "_reduced_integral", counted)
        return calls, real

    def test_positivity_check_makes_two_passes(self, passes):
        calls, real = passes
        spec = quantum()
        f = packet(center_x=(0.3,), carrier_freq=0.7, amplitude=1 - 0.5j)
        value, diag = inner_product_with_diagnostics(spec, f, packet(
            center_x=(0.3,), carrier_freq=0.7, amplitude=1 - 0.5j))
        assert len(calls) == 2
        calls.clear()
        assert positivity_check(spec, f) == value.real
        assert len(calls) == 2
        # the formula with three separate doubled passes, bit for bit
        base = real(spec, f, f, 256, diag.cutoff)
        refined = real(spec, f, f, 512, 2.0 * diag.cutoff)
        norm = real(spec, f, f, 512, 2.0 * diag.cutoff).real
        assert (value, diag.refined) == (base, refined)
        assert diag.relative_shift == abs(refined - base) / math.sqrt(norm * norm)

    def test_distinct_pair_makes_four_passes(self, passes):
        calls, real = passes
        spec = quantum()
        f = packet(center_x=(0.3,), carrier_freq=0.7, amplitude=1 - 0.5j)
        g = packet(carrier_wavevector=(0.8,), width_x=1.3)
        value, diag = inner_product_with_diagnostics(spec, f, g)
        # each norm is the packet's own refined (h, h), at its own cutoff
        own = [(h, h, 512, 2.0 * h.suggested_cutoff) for h in (f, g)]
        assert calls == [(f, g, 256, diag.cutoff), (f, g, 512, 2.0 * diag.cutoff), *own]
        norm_f, norm_g = (real(spec, *job).real for job in own)
        assert diag.relative_shift == abs(diag.refined - value) / math.sqrt(norm_f * norm_g)

    def test_batch_runs_each_distinct_pass_once(self, passes):
        calls, _ = passes
        spec = quantum()
        f, g = packet(), packet(center_x=(0.4,), carrier_wavevector=(0.8,))
        found = K.inner_products(spec, [(f, f), (g, g), (f, g), (g, f), (f, g)])
        assert len(calls) == len(set(calls)) == 8
        assert found[2] == found[4] == inner_product_with_diagnostics(spec, f, g)

    def test_kernel_axioms_make_nine_passes_per_pair(self, passes, monkeypatch):
        from kgf import verify

        calls, _ = passes
        monkeypatch.setattr(verify, "KERNEL_AXIOM_PAIRS", 3)
        assert verify.check_kernel_axioms(seed=7).passed
        assert len(calls) == 27

    def test_three_packet_table_makes_twelve_passes(self, passes):
        from kgf.opalgebra import InnerProductTable

        calls, real = passes
        spec = quantum()
        packets = [packet(), packet(center_x=(0.4,), carrier_wavevector=(0.8,)),
                   packet(carrier_freq=0.5, width_x=1.3, amplitude=0.5j)]
        table = InnerProductTable.from_kernel(spec, dict(enumerate(packets, start=1)))
        # two per entry: each off-diagonal check reuses the diagonal norms
        assert len(calls) == 12
        for i, f in enumerate(packets, start=1):
            for j, g in enumerate(packets, start=1):
                if i <= j:
                    cutoff = max(f.suggested_cutoff, g.suggested_cutoff)
                    assert table[(i, j)] == real(spec, f, g, 256, cutoff)


class TestHigherDimensions:
    def test_d2_norm_factorizes_for_product_packet(self):
        # separable Gaussian: the D=2 norm with mass m equals a 1-D
        # mass-shell integral with the same omega only through quadrature,
        # so check internal consistency instead: positivity and symmetry
        # under swapping identical axes.
        f = WavePacket(dim=2, center_x=(0.3, -0.3), width_x=1.1,
                       carrier_wavevector=(0.5, 0.5))
        spec = quantum(dim=2, nodes=64)
        n = positivity_check(spec, f, check=False)
        g = WavePacket(dim=2, center_x=(-0.3, 0.3), width_x=1.1,
                       carrier_wavevector=(0.5, 0.5))
        m = positivity_check(spec, g, check=False)
        assert n > 0
        assert n == pytest.approx(m, rel=1e-12)

    def test_d2_convergence_check_passes_for_mild_packet(self):
        f = WavePacket(dim=2, center_x=(0.0, 0.0), width_x=1.5,
                       carrier_wavevector=(0.4, 0.0))
        value, diag = inner_product_with_diagnostics(
            quantum(dim=2, nodes=96), f, f)
        assert diag.relative_shift < 1e-8
        assert value.real > 0


class TestGaussLegendreRule:
    """The Newton rule against numpy's eigenvalue-based ``leggauss`` for the
    nodes, and against exact integrals for the weights."""

    SIZES = [16, 17, 31, 64, 127, 256, 257, 512, 1000, 1023, 1024]

    @pytest.mark.parametrize("n", SIZES)
    def test_nodes_match_leggauss(self, n):
        x, w = K._gauss_legendre(n)
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 1e-15
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", SIZES)
    def test_weights_integrate_every_even_monomial_it_should(self, n):
        # sum w x^(2k) = 2 / (2k + 1) for 2k <= 2n - 1
        x, w = K._gauss_legendre(n)
        power = np.ones_like(x)
        for k in range(n):
            assert abs(np.sum(w * power) - 2.0 / (2 * k + 1)) <= 4e-15
            power = power * x * x

    @pytest.mark.parametrize("n, exp_rtol, runge_rtol", [
        (64, 5e-14, 1e-10), (256, 1e-14, 4e-15), (512, 1e-14, 4e-15),
        (1024, 1e-14, 4e-15),
    ])
    def test_exact_integrals(self, n, exp_rtol, runge_rtol):
        """int exp(50x) dx = 2 sinh(50)/50, where leggauss(512) is off by
        3e-13; int dx/(1 + 25x^2) = 2 atan(5)/5, whose poles at +-i/5 hold
        the error near 1.22^(-2n) until it reaches rounding."""
        x, w = K._gauss_legendre(n)
        exact = 2.0 * math.sinh(50.0) / 50.0
        assert abs(np.sum(w * np.exp(50.0 * x)) - exact) <= exp_rtol * exact
        exact = 0.4 * math.atan(5.0)
        assert abs(np.sum(w / (1.0 + 25.0 * x * x)) - exact) <= runge_rtol * exact


def random_packets(rng, dim, count):
    return [WavePacket(
        dim=dim,
        center_t=rng.uniform(-2, 2),
        center_x=tuple(rng.uniform(-2, 2, dim)),
        width_t=rng.uniform(0.8, 1.8),
        width_x=rng.uniform(0.8, 1.8),
        carrier_freq=rng.uniform(-2, 2),
        carrier_wavevector=tuple(rng.uniform(-2, 2, dim)),
        amplitude=complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
    ) for _ in range(count)]


class TestPasses:
    """One radial pass on one grid, real where the exponent is; a batch of
    passes on one thread per usable CPU."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_real_pass_equals_complex_pass(self, dim, variant, monkeypatch):
        spec = KernelSpec(variant, PhysicalConstants(mass=0.8, kT=1.3, xi=0.5), dim=dim)
        real_means = K._direction_means
        for f in random_packets(np.random.default_rng(10 + dim), dim, 5):
            cutoff = f.suggested_cutoff
            real = K._reduced_integral(spec, f, f, 256, cutoff)
            monkeypatch.setattr(K, "_direction_means", lambda c0, s, *rest: real_means(
                complex(c0), complex(s), *rest))
            forced = K._reduced_integral(spec, f, f, 256, cutoff)
            monkeypatch.setattr(K, "_direction_means", real_means)
            assert abs(real - forced) <= 1e-15 * abs(forced)

    def test_norm_grid_is_real_and_cross_grid_complex(self, monkeypatch):
        dtypes = []
        real_means = K._direction_means

        def spy(*args):
            out = real_means(*args)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(K, "_direction_means", spy)
        f, g = random_packets(np.random.default_rng(3), 2, 2)
        inner_product_with_diagnostics(quantum(dim=2, nodes=128), f, g)
        # base and doubled (f, g) complex, doubled (f, f) and (g, g) real
        assert sorted(map(str, dtypes)) == ["complex128"] * 2 + ["float64"] * 2

    def test_one_grid_is_the_plain_expression_bit_for_bit(self):
        r, _ = K._radial_rule(2, 128)
        u, mean = K._direction_rule(2, 128)
        r = 6.5 * r
        c0, s, alpha = np.complex128(-0.7 + 1.9j), np.sqrt(np.complex128(2.1 - 3.4j)), 0.9
        plain = np.einsum("ij,j->i", np.exp((c0 - alpha * r * r)[:, None] + s * r[:, None] * u),
                          mean)
        assert np.array_equal(K._direction_means(c0, s, r, u, mean, alpha), plain)

    @pytest.fixture
    def threads(self, monkeypatch):
        """The OS threads each batch starts, with two usable CPUs."""
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(K, "threading", types.SimpleNamespace(Thread=Thread))
        monkeypatch.setattr(K, "_usable_cpus", lambda: 2)
        return started

    @pytest.mark.parametrize("dim", [2, 3])
    def test_threaded_batch_gives_the_serial_bits(self, dim, threads, monkeypatch):
        packets = random_packets(np.random.default_rng(20 + dim), dim, 3)
        spec = quantum(dim=dim, nodes=64)
        pairs = list(itertools.combinations(packets, 2))
        threaded = K.inner_products(spec, pairs)
        assert len(threads) == 2 and not any(t.is_alive() for t in threads)
        monkeypatch.setattr(K, "_usable_cpus", lambda: 1)
        assert K.inner_products(spec, pairs) == threaded
        assert len(threads) == 2
        for (f, g), (value, diag) in zip(pairs, threaded):
            cutoff = max(f.suggested_cutoff, g.suggested_cutoff)
            assert (value, diag.refined) == (
                K._reduced_integral(spec, f, g, 64, cutoff),
                K._reduced_integral(spec, f, g, 128, 2.0 * cutoff))

    def test_d1_batch_runs_inline(self, threads):
        f, g = random_packets(np.random.default_rng(4), 1, 2)
        inner_product_with_diagnostics(quantum(), f, g)
        assert threads == []

    def test_a_failing_pass_raises_after_every_thread_ends(self, threads, monkeypatch):
        def broken(spec, f, g, nodes, cutoff):
            if nodes > 16:
                raise MemoryError("grid")
            return 1.0 + 0.0j

        monkeypatch.setattr(K, "_reduced_integral", broken)
        f, g = random_packets(np.random.default_rng(5), 2, 2)
        with pytest.raises(MemoryError, match="grid"):
            inner_product_with_diagnostics(quantum(dim=2, nodes=16), f, g)
        assert len(threads) == 2 and not any(t.is_alive() for t in threads)

    def test_table_checks_fail_in_table_order(self):
        """The table runs its passes first and its checks after, diagonal
        first: an overflowing first packet fails its own check before a
        second packet of the wrong dimension is refused, as pair by pair."""
        from kgf.opalgebra import InnerProductTable

        for first, error, match in ((packet(amplitude=1e200), AccuracyError, "non-finite"),
                                    (packet(), InvalidInputError, "dimension mismatch")):
            with pytest.raises(error, match=match):
                InnerProductTable.from_kernel(quantum(), {"f1": first, "f2": packet(dim=2)})

    def test_max_nodes_d2_inner_product_stays_within_two_grids(self, threads):
        """A 1024-node D=2 checked inner product on two threads: the
        tracemalloc peak stays within 128 MiB, what one pass built from
        three full-size temporaries took alone."""
        f, g = random_packets(np.random.default_rng(6), 2, 2)
        spec = quantum(dim=2, nodes=MAX_QUADRATURE_NODES)
        K._radial_rule(2, MAX_QUADRATURE_NODES)
        K._radial_rule(2, 2 * MAX_QUADRATURE_NODES)
        tracemalloc.start()
        try:
            inner_product_with_diagnostics(spec, f, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(threads) == 2
        assert peak <= 128 * 2**20


class TestDirectionRule:
    """Each D >= 2 pass takes its direction count from the reach |s| cutoff
    of its own exponent, capped at ``nodes``."""

    @pytest.mark.parametrize("dim, reach, count", [
        (1, 50.0, 2), (2, 0.0, 20), (2, 7.2, 28), (2, 236.0, 256), (2, 237.0, 256),
        (3, 0.0, 16), (3, 21.3, 32), (3, 21.4, 64), (3, 320.0, 256), (3, 1e5, 256),
    ])
    def test_count(self, dim, reach, count):
        assert K._direction_count(dim, 256, reach, 1.0) == count
        assert K._direction_count(dim, 256, reach / 4.0 * 1j, 4.0) == count

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("s, cutoff", [(math.inf, 1.0), (math.nan, 1.0),
                                           (complex(math.inf, 1.0), 1.0), (0.0, math.inf),
                                           (1e200, 1e200)])
    def test_non_finite_reach_takes_nodes(self, dim, s, cutoff):
        assert K._direction_count(dim, 100, s, cutoff) == 100

    @pytest.mark.parametrize("dim", [2, 3])
    def test_refined_pass_never_has_fewer_directions(self, dim):
        for nodes in (16, 100, 256, MAX_QUADRATURE_NODES):
            for reach in np.geomspace(1e-3, 1e4, 200):
                assert (K._direction_count(dim, 2 * nodes, reach, 2.0)
                        >= K._direction_count(dim, nodes, reach, 1.0))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mean_is_rounding_close_up_to_the_caps_reach(self, dim):
        """Random complex z up to the largest reach whose count is still
        below MAX_QUADRATURE_NODES, relative to e^|Re z|: D=2 against 8192
        midpoint angles, D=3 against sinh(z)/z."""
        reach = {2: MAX_QUADRATURE_NODES - 20, 3: (MAX_QUADRATURE_NODES - 16) / 0.75}[dim]
        rng = np.random.default_rng(30 + dim)
        zs = reach * np.sqrt(rng.uniform(size=120)) * np.exp(2j * math.pi * rng.uniform(size=120))
        zs = np.concatenate((zs, [reach, 1j * reach, 0.5 * reach, 0.0]))

        def mean(z, count):
            u, w = K._direction_rule(dim, count)
            return np.sum(w * np.exp(z * u - abs(z.real)))

        for z in zs:
            count = K._direction_count(dim, MAX_QUADRATURE_NODES, z, 1.0)
            assert count <= MAX_QUADRATURE_NODES
            if dim == 2:
                expected = mean(z, 8192)
            elif z == 0:
                expected = 1.0
            else:
                expected = (np.exp(z - abs(z.real)) - np.exp(-z - abs(z.real))) / (2 * z)
            assert abs(mean(z, count) - expected) <= 1e-14

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dim, width, carrier", [(2, (0.8, 1.8), 2.0),
                                                     (3, (5.5, 6.5), 0.2),
                                                     (3, (0.8, 1.8), 2.0)])
    def test_inner_products_match_the_full_direction_rule(self, dim, width, carrier,
                                                          variant, monkeypatch):
        rng = np.random.default_rng(200 + dim)
        spec = KernelSpec(variant, TestTensorGridReferee.CONSTANTS, dim=dim)
        packets = [replace(p, width_x=rng.uniform(*width),
                           carrier_wavevector=tuple(rng.uniform(-carrier, carrier, dim)))
                   for p in random_packets(rng, dim, 3)]
        pairs = list(itertools.combinations_with_replacement(packets, 2))
        derived = K.inner_products(spec, pairs)
        monkeypatch.setattr(K, "_direction_count", lambda dim, nodes, s, cutoff: nodes)
        full = K.inner_products(spec, pairs)
        norms = {id(f): full[pairs.index((f, f))][0].real for f in packets}
        for (f, g), (value, _), (reference, _) in zip(pairs, derived, full):
            assert abs(value - reference) <= 1e-13 * math.sqrt(norms[id(f)] * norms[id(g)])


def referee_packet(rng, dim, width, carrier):
    return WavePacket(
        dim=dim,
        center_t=rng.uniform(-2, 2),
        center_x=tuple(rng.uniform(-2, 2, dim)),
        width_t=rng.uniform(0.8, 1.8),
        width_x=rng.uniform(*width),
        carrier_freq=rng.uniform(-2, 2),
        carrier_wavevector=tuple(rng.uniform(-carrier, carrier, dim)),
        amplitude=complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
    )


def tensor_grid(spec, f, g, nodes, eta=0.0):
    """((f,g), (f,f), (g,g)) on a Gauss-Legendre tensor grid over [-cutoff, cutoff]^D,
    for the packets boosted along axis 1 with rapidity ``eta``.

    The referee of the radial quadrature: it shares nothing with it but
    ``fourier_transform``, evaluated at every grid point.  A boost L needs
    no boosted packet: f_L~(k) = f~(L^-1 k), and the box grows by e^|eta|
    to cover the boosted support.  The classical weight kT/omega^2 is the
    rest frame's form of 2kT/(u.k) per invariant measure, with u.k =
    (L^-1 k)^0.  The grid is summed one slab of the first axis at a time,
    so memory stays at nodes^(D-1) points.
    """
    c = spec.constants
    cutoff = max(f.suggested_cutoff, g.suggested_cutoff) * math.exp(abs(eta))
    ch, sh = math.cosh(eta), math.sinh(eta)
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = cutoff * x, cutoff * w
    k_rest = np.array(list(itertools.product(x, repeat=spec.dim - 1)))
    w_rest = np.array([math.prod(ws) for ws in itertools.product(w, repeat=spec.dim - 1)])
    totals = np.zeros(3, dtype=complex)
    for x0, w0 in zip(x, w):
        k = np.column_stack([np.full(len(k_rest), x0), k_rest])
        omega = np.sqrt(np.sum(k * k, axis=1) + c.mass**2)
        rest0 = ch * omega - sh * k[:, 0]
        rest = np.column_stack([ch * k[:, 0] - sh * omega, k[:, 1:]])
        weight = w0 * w_rest * c.hbar / (2.0 * omega)
        if spec.variant is KernelVariant.CLASSICAL:
            weight = weight * (c.kT / c.hbar) * (2.0 / rest0)
        elif spec.variant is KernelVariant.XI_SCALED:
            weight = weight * c.xi
        ft = fourier_transform(f, rest0, rest)
        gt = fourier_transform(g, rest0, rest)
        totals += [np.sum(weight * np.conj(ft) * gt),
                   np.sum(weight * np.abs(ft) ** 2),
                   np.sum(weight * np.abs(gt) ** 2)]
    return totals / TWO_PI**spec.dim


class TestTensorGridReferee:
    """The radial quadrature against a dense tensor grid, to 1e-10.

    Each grid size agrees with its own doubling to below 2e-14 of the
    Cauchy-Schwarz scale on these packet ranges, so it certifies the
    radial value.  D=3 uses wide, slow packets that 128^3 resolves.
    """

    CONSTANTS = PhysicalConstants(hbar=0.7, kT=1.3, mass=0.8, xi=0.5)

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dim, grid_nodes, width, carrier", [
        (1, 512, (0.8, 1.8), 2.0),
        (2, 512, (0.8, 1.8), 2.0),
        (3, 128, (5.5, 6.5), 0.2),
    ])
    def test_radial_matches_tensor_grid(self, dim, grid_nodes, width, carrier,
                                        variant):
        rng = np.random.default_rng(100 + dim)
        f, g = (referee_packet(rng, dim, width, carrier) for _ in range(2))
        spec = KernelSpec(variant, self.CONSTANTS, dim=dim)
        expected, norm_f, norm_g = tensor_grid(spec, f, g, grid_nodes)
        scale = math.sqrt(norm_f.real * norm_g.real)
        assert scale > 0
        assert abs(inner_product(spec, f, g) - expected) <= 1e-10 * scale


class TestBoostedTensorGrid:
    """The identities of :class:`TestLorentzCovariance` in D=2 and D=3, on
    the tensor-grid referee boosted along axis 1 with 0.3 <= |eta| <= 0.7:
    (f_L, g_L) = (f, g) under the quantum and xi kernels, and under the
    classical kernel with the moving frame's weight 2kT/(u.k).  The grid
    shares only ``fourier_transform`` with the radial pass and its
    derived direction counts."""

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("dim, grid_nodes, width, carrier", [
        (2, 512, (0.8, 1.8), 2.0),
        (3, 128, (5.5, 6.5), 0.2),
    ])
    def test_boosted_pair_keeps_its_inner_product(self, dim, grid_nodes, width, carrier,
                                                  variant):
        rng = np.random.default_rng(300 + dim)
        f, g = (referee_packet(rng, dim, width, carrier) for _ in range(2))
        eta = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.7)
        spec = KernelSpec(variant, TestTensorGridReferee.CONSTANTS, dim=dim)
        expected, norm_f, norm_g = tensor_grid(spec, f, g, grid_nodes, eta)
        scale = math.sqrt(norm_f.real * norm_g.real)
        assert scale > 0
        assert abs(inner_product(spec, f, g) - expected) <= 1e-10 * scale


#: The boosted referee's 512-node Gauss-Legendre rule on [-1, 1].
LINE_RULE = np.polynomial.legendre.leggauss(512)


def boosted(f, g, eta, mass, weight):
    """(f_L, g_L) = int dk/(2 pi) weight(k0, (L^-1 k)^0) conj(f~(L^-1 k))
    g~(L^-1 k) on the D=1 mass shell k0 = omega(k), for the boost L of
    rapidity ``eta``.

    The boosted packet f_L(x) = f(L^-1 x) has f_L~(k) = f~(L^-1 k), so no
    boosted packet is built.  The referee is a plain Gauss-Legendre rule
    on +/- cutoff e^|eta|, which covers the boosted support; it shares
    nothing with the radial pass but ``fourier_transform``.
    """
    cutoff = max(f.suggested_cutoff, g.suggested_cutoff) * math.exp(abs(eta))
    x, w = LINE_RULE
    k = cutoff * x
    k0 = np.sqrt(k * k + mass**2)
    ch, sh = math.cosh(eta), math.sinh(eta)
    rest0, rest1 = ch * k0 - sh * k, ch * k - sh * k0
    ft = fourier_transform(f, rest0, rest1[:, None])
    gt = fourier_transform(g, rest0, rest1[:, None])
    return complex(np.sum(cutoff * w * weight(k0, rest0) * np.conj(ft) * gt)) / TWO_PI


class TestLorentzCovariance:
    """The paper's title claim in D=1, on 20 random packet pairs and boosts
    with |eta| <= 0.7: the quantum and xi kernels are Lorentz invariant.
    The classical thermal kernel kT/omega^2 is not: it is the rest frame's
    form of the covariant weight 2kT/(u.k) per invariant measure
    dk/(2 pi 2 omega), with the bath's 4-velocity u = (cosh eta, sinh eta)
    once boosted, and u.k = (L^-1 k)^0."""

    @pytest.fixture(scope="class")
    def cases(self):
        """(constants, f, g, eta, {variant: ((f, g), Cauchy-Schwarz scale)})."""
        from kgf.verify import _random_packet

        rng = np.random.default_rng(2004)
        rows = []
        for _ in range(20):
            c = PhysicalConstants(hbar=0.7, kT=1.3, mass=float(rng.uniform(0.6, 2.0)),
                                  xi=float(rng.uniform(0.1, 0.9)))
            f, g = _random_packet(rng), _random_packet(rng)
            kernel = {}
            for variant in KernelVariant:
                spec = KernelSpec(variant, c, dim=1)
                kernel[variant] = (inner_product(spec, f, g), math.sqrt(
                    positivity_check(spec, f) * positivity_check(spec, g)))
            rows.append((c, f, g, float(rng.uniform(-0.7, 0.7)), kernel))
        return rows

    def test_quantum_and_xi_kernels_are_invariant(self, cases):
        for c, f, g, eta, kernel in cases:
            for variant, factor in ((KernelVariant.QUANTUM, 1.0),
                                    (KernelVariant.XI_SCALED, c.xi)):
                value, scale = kernel[variant]
                got = boosted(f, g, eta, c.mass,
                              lambda k0, _: factor * c.hbar / (2.0 * k0))
                assert abs(got - value) <= 1e-10 * scale

    def test_classical_kernel_moves_under_a_boost(self, cases):
        moved = []
        for c, f, g, eta, kernel in cases:
            value, scale = kernel[KernelVariant.CLASSICAL]
            got = boosted(f, g, eta, c.mass, lambda k0, _: c.kT / k0**2)
            moved.append(abs(got - value) / scale)
        assert min(moved) > 1e-4 and max(moved) > 0.1

    def test_classical_kernel_is_covariant_with_the_moving_frame_weight(self, cases):
        for c, f, g, eta, kernel in cases:
            value, scale = kernel[KernelVariant.CLASSICAL]
            got = boosted(f, g, eta, c.mass, lambda k0, rest0: c.kT / (k0 * rest0))
            assert abs(got - value) <= 1e-10 * scale
