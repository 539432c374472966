"""Self-contained verification suite wiring the modules against each other.

Each check returns a :class:`CheckResult` and never raises on a numerical
failure, so the suite always reports every check it ran.  The checks are
deliberately cross-module: quadrature kernels against algebraic axioms,
the contraction kernel against the rewriting engine, sampled lattice moments
against closed-form coefficients and against the independent Fock-space
oracle.  All randomness is seeded, so a pass is reproducible.

Deviation normalization: inner-product identities are measured relative
to sqrt((f,f)(g,g)).  By the Cauchy-Schwarz inequality this dominates
|(f,g)|, so the measure is scale-invariant and does not blow up on
nearly orthogonal packet pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fockoracle, opalgebra, sampler, spectra
from .errors import InvalidInputError, KGFError
from .kernels import (
    KernelSpec,
    KernelVariant,
    PhysicalConstants,
    WavePacket,
    inner_product,
    positivity_check,
)
from .spectra import Ensemble, SpectralDensity, lambda_of_xi, spectral_coefficient

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "SUITES",
    "check_kernel_axioms",
    "check_algebra_equivalence",
    "check_two_point",
    "check_lambda_closure",
    "check_crossover",
    "check_sampler_moments",
    "check_equipartition",
    "check_fock_oracle",
    "run_suite",
    "format_results",
]

DEFAULT_SEED = 20608

#: 99% of modes must sit within 5 standard errors of the moment contract.
MODE_PASS_FRACTION = 0.99
MODE_SIGMA = 5.0

#: Check sizes: randomized packet pairs of the kernel-axiom and two-point
#: checks, random ip tables of the algebra check, and samples per sampled
#: ensemble.  Part of the shipped contract, like the tolerances.
KERNEL_AXIOM_PAIRS = 100
TWO_POINT_PAIRS = 20
ALGEBRA_TABLES = 20
N_SAMPLES = 20000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name: str, start: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       elapsed=time.perf_counter() - start)


def _random_packet(rng: np.random.Generator) -> WavePacket:
    """Randomized D=1 packet the default quadrature certifiably resolves.

    Widths >= 0.8 cap the cutoff at |kbar| + 15; together with the mass
    floor in the callers this keeps the 1/omega branch point far enough
    from the real axis for 256 Gauss-Legendre nodes to reach 1e-13.
    """
    amp_re, amp_im = rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0)
    return WavePacket(
        center_t=float(rng.uniform(-2.0, 2.0)),
        center_x=tuple(rng.uniform(-2.0, 2.0, size=1)),
        width_t=float(rng.uniform(0.8, 1.8)),
        width_x=float(rng.uniform(0.8, 1.8)),
        carrier_freq=float(rng.uniform(-2.0, 2.0)),
        carrier_wavevector=tuple(rng.uniform(-2.0, 2.0, size=1)),
        amplitude=complex(amp_re, amp_im),
    )


def check_kernel_axioms(seed: int = DEFAULT_SEED) -> CheckResult:
    """Hermiticity, positivity and xi-scaling on randomized packet pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_herm = worst_scale = 0.0
    min_norm = math.inf
    for _ in range(KERNEL_AXIOM_PAIRS):
        constants = PhysicalConstants(
            hbar=1.0, kT=1.0,
            mass=float(rng.uniform(0.6, 2.0)),
            xi=float(rng.uniform(0.1, 0.9)),
        )
        quantum = KernelSpec(KernelVariant.QUANTUM, constants, dim=1)
        scaled = KernelSpec(KernelVariant.XI_SCALED, constants, dim=1)
        f, g = _random_packet(rng), _random_packet(rng)
        try:
            norm_f = positivity_check(quantum, f)
            norm_g = positivity_check(quantum, g)
            fg = inner_product(quantum, f, g)
            gf = inner_product(quantum, g, f)
            xi_fg = inner_product(scaled, f, g, check=False)
        except KGFError as exc:
            return _result("kernel_axioms", start, False, f"kernel error: {exc}")
        scale = math.sqrt(norm_f * norm_g)
        min_norm = min(min_norm, norm_f, norm_g)
        worst_herm = max(worst_herm, abs(fg - gf.conjugate()) / scale)
        worst_scale = max(
            worst_scale, abs(xi_fg - constants.xi * fg) / (constants.xi * scale)
        )
    passed = worst_herm <= 1e-8 and worst_scale <= 1e-12 and min_norm > 0.0
    return _result(
        "kernel_axioms", start, passed,
        f"{KERNEL_AXIOM_PAIRS} pairs: hermiticity dev {worst_herm:.2e} (tol 1e-08), "
        f"xi-scaling dev {worst_scale:.2e} (tol 1e-12), min norm {min_norm:.3e}",
    )


def _random_hermitian_table(rng: np.random.Generator,
                            size: int) -> opalgebra.InnerProductTable:
    raw = rng.uniform(-1.0, 1.0, size=(size, size, 2))
    m = raw[..., 0] + 1j * raw[..., 1]
    m = 0.5 * (m + m.conj().T)
    entries = {
        (i + 1, j + 1): complex(m[i, j]) for i in range(size) for j in range(size)
    }
    return opalgebra.InnerProductTable(entries)


def check_algebra_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Contraction-kernel VEVs against the rewriting engine on random ip tables.

    ``contract`` over phi letters (the call ``kgf expect`` makes) and
    ``vacuum_expectation`` both run on the contraction kernel; the identity
    coefficient of ``normal_order`` is the referee.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    size = 8
    registry = opalgebra.FunctionRegistry()
    for i in range(size):
        registry.register(f"f{i + 1}")
    worst = 0.0
    odd_ok = True
    for _ in range(ALGEBRA_TABLES):
        ip = _random_hermitian_table(rng, size)
        for n in (2, 4, 6, 8, 1, 3, 5, 7):
            indices = [int(v) for v in rng.integers(1, size + 1, size=n)]
            expr = opalgebra.OperatorExpression.identity()
            for idx in indices:
                expr = expr * opalgebra.field_operator(registry, idx)
            via_rewrite = opalgebra.normal_order(expr, ip).terms.get((), 0j)
            fast = (opalgebra.contract([("phi", i) for i in indices], ip),
                    opalgebra.vacuum_expectation(expr, ip))
            if n % 2:
                odd_ok = odd_ok and via_rewrite == 0 and fast == (0, 0)
            else:
                denom = max(abs(via_rewrite), 1e-6)
                worst = max(worst, *(abs(v - via_rewrite) / denom for v in fast))
    passed = worst <= 1e-10 and odd_ok
    return _result(
        "algebra_equivalence", start, passed,
        f"{ALGEBRA_TABLES} tables, n in 2/4/6/8: worst rel dev {worst:.2e} (tol 1e-10), "
        f"odd products exactly zero: {odd_ok}",
    )


def check_two_point(seed: int = DEFAULT_SEED) -> CheckResult:
    """<0| phi[f1] phi[f2] |0> = (f2, f1) under the quantum kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(TWO_POINT_PAIRS):
        constants = PhysicalConstants(mass=float(rng.uniform(0.6, 2.0)))
        spec = KernelSpec(KernelVariant.QUANTUM, constants, dim=1)
        registry = opalgebra.FunctionRegistry()
        registry.register("f1", _random_packet(rng))
        registry.register("f2", _random_packet(rng))
        try:
            table = opalgebra.InnerProductTable.from_kernel(spec, registry)
            expr = (opalgebra.field_operator(registry, 1)
                    * opalgebra.field_operator(registry, 2))
            vev = opalgebra.vacuum_expectation(expr, table)
            direct = inner_product(spec, registry.packet(2), registry.packet(1))
            scale = math.sqrt(
                positivity_check(spec, registry.packet(1), check=False)
                * positivity_check(spec, registry.packet(2), check=False)
            )
        except KGFError as exc:
            return _result("two_point_orientation", start, False,
                           f"kernel error: {exc}")
        worst = max(worst, abs(vev - direct) / scale)
    passed = worst <= 1e-8
    return _result(
        "two_point_orientation", start, passed,
        f"{TWO_POINT_PAIRS} pairs: worst rel dev {worst:.2e} (tol 1e-08)",
    )


def check_lambda_closure() -> CheckResult:
    """c_XiLambda at lambda(xi) collapses onto c_QuantumVacuum for all k."""
    start = time.perf_counter()
    k_grid = np.linspace(0.0, 10.0, 256)
    worst = 0.0
    for xi in np.arange(1, 10) / 10.0:
        constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=float(xi))
        closed = SpectralDensity.xi_lambda_closed(constants)
        vacuum = SpectralDensity(Ensemble.QUANTUM_VACUUM, constants)
        c_lam = spectral_coefficient(closed, k_grid)
        c_q = spectral_coefficient(vacuum, k_grid)
        worst = max(worst, float(np.max(np.abs(c_lam - c_q) / c_q)))
    passed = worst <= 1e-12
    return _result(
        "lambda_closure", start, passed,
        f"256-point grid, xi in 0.1..0.9: worst rel dev {worst:.2e} (tol 1e-12)",
    )


def check_crossover() -> CheckResult:
    """c_T tracks c_E below hbar*omega/2kT = 0.1 and c_Q above 3, within 1%.

    Quantitative only in the near-massless regime, so the check runs at
    m = 0.01 kT/hbar.
    """
    start = time.perf_counter()
    constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=0.01)
    k_grid = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 160)))
    rows = spectra.crossover_report(constants, k_grid)
    worst_low = worst_high = 0.0
    n_low = n_high = 0
    for row in rows:
        omega = math.hypot(row.k, constants.mass)
        x = constants.hbar * omega / (2.0 * constants.kT)
        if x <= 0.1:
            n_low += 1
            worst_low = max(worst_low, row.rel_dev_E)
        if x >= 3.0:
            n_high += 1
            worst_high = max(worst_high, row.rel_dev_Q)
    passed = (n_low > 0 and n_high > 0
              and worst_low < 0.01 and worst_high < 0.01)
    return _result(
        "crossover", start, passed,
        f"{n_low} low modes: dev from c_E {worst_low:.2e}; "
        f"{n_high} high modes: dev from c_Q {worst_high:.2e} (tol 1e-02)",
    )


def _verification_densities() -> dict:
    constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=0.5)
    return {ens: SpectralDensity(ens, constants, lam=lambda_of_xi(constants.xi)
                                 if ens is Ensemble.XI_LAMBDA else None)
            for ens in Ensemble}


def _moment_pass_fraction(estimate: sampler.SpectrumEstimate,
                          expected: np.ndarray) -> tuple:
    z = np.abs(estimate.mean - expected) / estimate.stderr
    frac = float(np.mean(z <= MODE_SIGMA))
    return frac, float(np.max(z))


def _sampled_spectrum(density: SpectralDensity, lattice: sampler.LatticeSpec,
                      seed: int, n: int) -> sampler.SpectrumEstimate:
    acc = sampler.SpectrumAccumulator(lattice)
    for chunk in sampler.sample_chunks(density, lattice, seed, n):
        acc.add(chunk)
    return acc.finalize()


def check_sampler_moments(seed: int = DEFAULT_SEED) -> CheckResult:
    """Per-mode E[|phi~_k|^2] = V/(2c) on all five ensembles, plus determinism."""
    start = time.perf_counter()
    lattice = sampler.LatticeSpec(dim=1, sites_per_axis=64, spacing=1.0)
    lines = []
    passed = True
    for i, (ensemble, density) in enumerate(_verification_densities().items()):
        t0 = time.perf_counter()
        # one stream per ensemble, clear of the seed + 1 and seed + 2 checks
        estimate = _sampled_spectrum(density, lattice, (seed + 3 + i) % 2**64, N_SAMPLES)
        expected = sampler.expected_power(density, lattice)
        frac, worst_z = _moment_pass_fraction(estimate, expected)
        dt = time.perf_counter() - t0
        ok = frac >= MODE_PASS_FRACTION
        passed = passed and ok
        lines.append(f"{ensemble.value}: {frac:.1%} in {MODE_SIGMA}se "
                     f"(worst z {worst_z:.2f}, {dt:.1f}s)")
    density = _verification_densities()[Ensemble.QUANTUM_VACUUM]
    serial, threaded = (
        b"".join(chunk.values.tobytes() for chunk in sampler.sample_chunks(
            density, lattice, seed, 512, workers=workers))
        for workers in (1, 4))
    deterministic = serial == threaded
    passed = passed and deterministic
    lines.append(f"byte-identical across worker counts: {deterministic}")
    return _result("sampler_moments", start, passed, "; ".join(lines))


def check_equipartition(seed: int = DEFAULT_SEED) -> CheckResult:
    """Classical ensemble: E[H_C] = (mode count) kT/2 within 5 standard errors."""
    start = time.perf_counter()
    constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=0.5)
    density = SpectralDensity(Ensemble.CLASSICAL_EQUILIBRIUM, constants)
    lattice = sampler.LatticeSpec(dim=1, sites_per_axis=64, spacing=1.0)
    half_omega_sq = 0.5 * (lattice.mode_magnitudes() ** 2 + constants.mass**2)
    stream = sampler.sample_chunks(density, lattice, (seed + 1) % 2**64, N_SAMPLES)
    values = np.concatenate([chunk.mode_sums(half_omega_sq) for chunk in stream])
    target = lattice.total_sites * constants.kT / 2.0
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(N_SAMPLES))
    z = abs(mean - target) / stderr
    passed = z <= MODE_SIGMA
    return _result(
        "equipartition", start, passed,
        f"E[H_C] = {mean:.4f} vs {target:.1f}, z = {z:.2f} (tol {MODE_SIGMA})",
    )


def check_fock_oracle(seed: int = DEFAULT_SEED) -> CheckResult:
    """Truncated-basis oracle vs coth closed form, spectral coefficients,
    and the sampled lattice."""
    start = time.perf_counter()
    worst_coth = 0.0
    for x in np.geomspace(0.2, 10.0, 20):
        mode = fockoracle.ModeSpec(omega=1.3, hbar_eff=0.7, gibbs_x=float(x))
        numeric = fockoracle.mode_variance_numeric(mode)
        closed = fockoracle.mode_variance_closed(mode)
        worst_coth = max(worst_coth, abs(numeric - closed) / closed)

    constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=0.5)
    thermal = SpectralDensity(Ensemble.QUANTUM_THERMAL, constants)
    worst_density = 0.0
    for k in np.linspace(0.0, 8.0, 64):
        chk = fockoracle.verify_density_variance(thermal, float(k))
        worst_density = max(worst_density, chk.rel_err)
    for xi in np.arange(1, 10) / 10.0:
        cst = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=float(xi))
        chk = fockoracle.verify_density_variance(
            SpectralDensity.xi_lambda_closed(cst), 1.0
        )
        worst_density = max(worst_density, chk.rel_err)

    lattice = sampler.LatticeSpec(dim=1, sites_per_axis=64, spacing=1.0)
    estimate = _sampled_spectrum(thermal, lattice, (seed + 2) % 2**64, N_SAMPLES)
    kmags = lattice.mode_magnitudes()
    oracle = np.array([
        fockoracle.mode_variance_numeric(fockoracle.ModeSpec(
            omega=math.hypot(k, constants.mass), hbar_eff=constants.hbar,
            gibbs_x=constants.hbar * math.hypot(k, constants.mass) / constants.kT,
        ))
        for k in kmags
    ])
    frac, worst_z = _moment_pass_fraction(estimate, oracle * lattice.volume)
    passed = (worst_coth <= 1e-10 and worst_density <= 1e-10
              and frac >= MODE_PASS_FRACTION)
    return _result(
        "fock_oracle", start, passed,
        f"coth dev {worst_coth:.2e} (tol 1e-10); density dev {worst_density:.2e} "
        f"(tol 1e-10); lattice agreement {frac:.1%} in {MODE_SIGMA}se "
        f"(worst z {worst_z:.2f})",
    )


SUITES = {
    "kernels": (check_kernel_axioms,),
    "algebra": (check_algebra_equivalence, check_two_point),
    "spectra": (check_lambda_closure, check_crossover),
    "sampler": (check_sampler_moments, check_equipartition),
    "fock": (check_fock_oracle,),
}
SUITES["all"] = sum(SUITES.values(), ())


def run_suite(name: str = "all", seed: int = DEFAULT_SEED) -> list:
    """Run one named suite; numerical failures are reported, not raised."""
    try:
        checks = SUITES[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return [check() if check in (check_lambda_closure, check_crossover)
            else check(seed=seed) for check in checks]


def format_results(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name} ({res.elapsed:.2f}s): {res.detail}")
    total = sum(r.elapsed for r in results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results)} checks, {len(results) - failed} passed, "
        f"{failed} failed, {total:.2f}s"
    )
    return "\n".join(lines)
