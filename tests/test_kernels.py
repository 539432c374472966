"""Kernel module: closed-form transforms and quadrature inner products."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

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
        # the cutoff misses the packet at k=100: both estimates are exactly
        # 0, which proves nothing about a packet of nonzero amplitude
        f = packet(carrier_wavevector=(100.0,))
        with pytest.raises(AccuracyError):
            inner_product(quantum(cutoff=10.0), f, f)

    def test_massless_even_nodes_is_finite(self):
        f = packet(width_x=2.0)
        value = inner_product(quantum(mass=0.0), f, f, check=False)
        assert math.isfinite(value.real)
        assert value.real > 0

    def test_explicit_cutoff_respected(self):
        f = packet()
        _, diag = inner_product_with_diagnostics(
            quantum(cutoff=9.0), f, f)
        assert diag.cutoff == 9.0

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

    def test_three_packet_table_makes_eighteen_passes(self, passes):
        from kgf.opalgebra import FunctionRegistry, InnerProductTable

        calls, real = passes
        spec = quantum()
        reg = FunctionRegistry()
        packets = [packet(), packet(center_x=(0.4,), carrier_wavevector=(0.8,)),
                   packet(carrier_freq=0.5, width_x=1.3, amplitude=0.5j)]
        for p in packets:
            reg.register(packet=p)
        table = InnerProductTable.from_kernel(spec, reg)
        assert len(calls) == 18
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


def tensor_grid(spec, f, g, nodes):
    """((f,g), (f,f), (g,g)) on a Gauss-Legendre tensor grid over [-cutoff, cutoff]^D.

    The referee of the radial quadrature: it shares nothing with it but
    ``fourier_transform``, evaluated at every grid point.  The grid is
    summed one slab of the first axis at a time, so memory stays at
    nodes^(D-1) points.
    """
    c = spec.constants
    cutoff = max(f.suggested_cutoff, g.suggested_cutoff)
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = cutoff * x, cutoff * w
    k_rest = np.array(list(itertools.product(x, repeat=spec.dim - 1)))
    w_rest = np.array([math.prod(ws) for ws in itertools.product(w, repeat=spec.dim - 1)])
    totals = np.zeros(3, dtype=complex)
    for x0, w0 in zip(x, w):
        k = np.column_stack([np.full(len(k_rest), x0), k_rest])
        omega = np.sqrt(np.sum(k * k, axis=1) + c.mass**2)
        weight = w0 * w_rest * c.hbar / (2.0 * omega)
        if spec.variant is KernelVariant.CLASSICAL:
            weight = weight * (c.kT / c.hbar) * (2.0 / omega)
        elif spec.variant is KernelVariant.XI_SCALED:
            weight = weight * c.xi
        ft = fourier_transform(f, omega, k)
        gt = fourier_transform(g, omega, k)
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

        def draw():
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

        f, g = draw(), draw()
        spec = KernelSpec(variant, self.CONSTANTS, dim=dim)
        expected, norm_f, norm_g = tensor_grid(spec, f, g, grid_nodes)
        scale = math.sqrt(norm_f.real * norm_g.real)
        assert scale > 0
        assert abs(inner_product(spec, f, g) - expected) <= 1e-10 * scale
