"""Self-contained verification suite wiring the modules against each other.

Each check returns a :class:`CheckResult` and never raises: the
:func:`_check` wrapper times it, builds its result and turns a
:class:`~kgf.errors.KGFError` raised inside it into that check's FAIL, so
the suite always reports every check it ran.  The checks are
deliberately cross-module: quadrature kernels against algebraic axioms,
the contraction kernel against the algebra's Fock-space representation,
sampled lattice moments against closed-form coefficients and against the
independent number-basis oracle.  All randomness is seeded, so a pass is
reproducible.

The checks share no state, so :func:`run_suite` runs them on a pool of
threads, one per usable CPU up to the number of checks; on one CPU they
run one after another on a single thread.  Their numpy work (Philox
draws, FFTs, the quadrature's ``exp``) releases the GIL.  The results
are the same and come in suite order on any CPU count.  Each check's
elapsed time is its own wall time, which includes any time its thread
waits for the GIL, so the summary's total is their sum, not the wall
time of the suite.

Deviation normalization: inner-product identities are measured relative
to sqrt((f,f)(g,g)).  By the Cauchy-Schwarz inequality this dominates
|(f,g)|, so the measure is scale-invariant and does not blow up on
nearly orthogonal packet pairs.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fockoracle, kernels, opalgebra, sampler, spectra
from .errors import InvalidInputError, KGFError
from .kernels import (
    KernelSpec,
    KernelVariant,
    PhysicalConstants,
    WavePacket,
    inner_product,
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


def _check(name: str):
    """Decorate a check body that returns ``(passed, detail)``: the check
    times the body and returns its :class:`CheckResult`, a FAIL whose
    detail is ``"<ExceptionType>: <message>"`` if the body raises a
    :class:`KGFError`."""
    def wrap(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = body(*args, **kwargs)
            except KGFError as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(name=name, passed=bool(passed), detail=detail,
                               elapsed=time.perf_counter() - start)
        check.name = name
        return check
    return wrap


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


@_check("kernel_axioms")
def check_kernel_axioms(seed: int = DEFAULT_SEED):
    """Hermiticity, positivity and xi-scaling on randomized packet pairs."""
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
        # one batch: the refined (f, f) and (g, g) scale every pair's check
        (ff, _), (gg, _), (fg, _), (gf, _) = kernels.inner_products(
            quantum, [(f, f), (g, g), (f, g), (g, f)])
        norm_f, norm_g = kernels.real_norm(ff), kernels.real_norm(gg)
        xi_fg = inner_product(scaled, f, g, check=False)
        scale = math.sqrt(norm_f * norm_g)
        min_norm = min(min_norm, norm_f, norm_g)
        worst_herm = max(worst_herm, abs(fg - gf.conjugate()) / scale)
        worst_scale = max(
            worst_scale, abs(xi_fg - constants.xi * fg) / (constants.xi * scale)
        )
    passed = worst_herm <= 1e-8 and worst_scale <= 1e-12 and min_norm > 0.0
    return (
        passed,
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


#: Letter kinds of the ladder words: the first two can annihilate, the
#: last two can create.
_LADDER_KINDS = ("a", "phi", "adag")


@_check("algebra_equivalence")
def check_algebra_equivalence(seed: int = DEFAULT_SEED):
    """Contraction-kernel VEVs against the Fock-space referee on random ip tables.

    ``contract``, the call ``kgf expect`` makes, against
    :func:`~kgf.fockoracle.fock_vacuum_expectation` on phi products and,
    drawn from a second stream, on mixed a/adag/phi ladder words.
    """
    rng = np.random.default_rng(seed)
    ladder_rng = np.random.default_rng((seed, 1))
    size = 8
    worst = {"phi": 0.0, "ladder": 0.0}
    nonzero = 0
    odd_ok = True
    for _ in range(ALGEBRA_TABLES):
        ip = _random_hermitian_table(rng, size)
        for n in (2, 4, 6, 8, 1, 3, 5, 7):
            phi = [("phi", int(i)) for i in rng.integers(1, size + 1, size=n)]
            # first letter a or phi, last phi or adag: most even words pair up
            kinds = ladder_rng.integers([0] * (n - 1) + [1], [2] + [3] * (n - 1))
            ladder = [(_LADDER_KINDS[k], int(i))
                      for k, i in zip(kinds, ladder_rng.integers(1, size + 1, size=n))]
            for leg, word in (("phi", phi), ("ladder", ladder)):
                referee = fockoracle.fock_vacuum_expectation(word, ip)
                fast = opalgebra.contract(word, ip)
                if n % 2:
                    odd_ok = odd_ok and referee == 0 and fast == 0
                else:
                    dev = abs(fast - referee) / max(abs(referee), 1e-6)
                    worst[leg] = max(worst[leg], dev)
                    if leg == "ladder":
                        nonzero += referee != 0
    passed = max(worst.values()) <= 1e-10 and odd_ok
    return (
        passed,
        f"{ALGEBRA_TABLES} tables, n in 2/4/6/8: worst rel dev {worst['phi']:.2e} "
        f"on phi products, {worst['ladder']:.2e} on ladder words ({nonzero} of "
        f"{4 * ALGEBRA_TABLES} nonzero) (tol 1e-10), odd words exactly zero: {odd_ok}",
    )


@_check("two_point_orientation")
def check_two_point(seed: int = DEFAULT_SEED):
    """<0| phi[f1] phi[f2] |0> = (f2, f1) under the quantum kernel."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(TWO_POINT_PAIRS):
        constants = PhysicalConstants(mass=float(rng.uniform(0.6, 2.0)))
        spec = KernelSpec(KernelVariant.QUANTUM, constants, dim=1)
        f1, f2 = _random_packet(rng), _random_packet(rng)
        table = opalgebra.InnerProductTable.from_kernel(spec, {1: f1, 2: f2})
        vev = opalgebra.contract([("phi", 1), ("phi", 2)], table)
        direct = inner_product(spec, f2, f1)
        scale = math.sqrt(kernels.real_norm(table[(1, 1)])
                          * kernels.real_norm(table[(2, 2)]))
        worst = max(worst, abs(vev - direct) / scale)
    passed = worst <= 1e-8
    return (
        passed,
        f"{TWO_POINT_PAIRS} pairs: worst rel dev {worst:.2e} (tol 1e-08)",
    )


@_check("lambda_closure")
def check_lambda_closure():
    """c_XiLambda at lambda(xi) collapses onto c_QuantumVacuum for all k."""
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
    return (
        passed,
        f"256-point grid, xi in 0.1..0.9: worst rel dev {worst:.2e} (tol 1e-12)",
    )


@_check("crossover")
def check_crossover():
    """c_T tracks c_E below hbar*omega/2kT = 0.1 and c_Q above 3, within 1%.

    Quantitative only in the near-massless regime, so the check runs at
    m = 0.01 kT/hbar.
    """
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
    return (
        passed,
        f"{n_low} low modes: dev from c_E {worst_low:.2e}; "
        f"{n_high} high modes: dev from c_Q {worst_high:.2e} (tol 1e-02)",
    )


def _verification_densities() -> dict:
    constants = PhysicalConstants(hbar=1.0, kT=1.0, mass=1.0, xi=0.5)
    return {ens: SpectralDensity(ens, constants, lam=lambda_of_xi(constants.xi)
                                 if ens is Ensemble.XI_LAMBDA else None)
            for ens in Ensemble}


def _moment_agreement(density: SpectralDensity, lattice: sampler.LatticeSpec,
                      seed: int, expected: np.ndarray) -> tuple:
    """Whether |phi~_k|^2 of ``N_SAMPLES`` draws meets ``expected`` on enough
    modes, and the text ``"<fraction> in <sigma>se (worst z <z>)"``."""
    acc = sampler.SpectrumAccumulator(lattice)
    for chunk in sampler.sample_chunks(density, lattice, seed, N_SAMPLES):
        acc.add(chunk)
    estimate = acc.finalize()
    z = np.abs(estimate.mean - expected) / estimate.stderr
    frac = float(np.mean(z <= MODE_SIGMA))
    return (frac >= MODE_PASS_FRACTION,
            f"{frac:.1%} in {MODE_SIGMA}se (worst z {float(np.max(z)):.2f})")


@_check("sampler_moments")
def check_sampler_moments(seed: int = DEFAULT_SEED):
    """Per-mode E[|phi~_k|^2] = V/(2c) on all five ensembles."""
    lattice = sampler.LatticeSpec(dim=1, sites_per_axis=64, spacing=1.0)
    lines = []
    passed = True
    for i, (ensemble, density) in enumerate(_verification_densities().items()):
        expected = sampler.expected_power(density, lattice)
        # one stream per ensemble, clear of the seed + 1 and seed + 2 checks
        leg = _check(ensemble.value)(_moment_agreement)(
            density, lattice, (seed + 3 + i) % 2**64, expected)
        passed = passed and leg.passed
        lines.append(f"{leg.name}: {leg.detail}")
    return passed, "; ".join(lines)


@_check("equipartition")
def check_equipartition(seed: int = DEFAULT_SEED):
    """Classical ensemble: E[H_C] = (mode count) kT/2 within 5 standard errors."""
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
    return (
        passed,
        f"E[H_C] = {mean:.4f} vs {target:.1f}, z = {z:.2f} (tol {MODE_SIGMA})",
    )


@_check("fock_oracle")
def check_fock_oracle(seed: int = DEFAULT_SEED):
    """Truncated-basis oracle vs coth closed form, spectral coefficients,
    and the sampled lattice."""
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
    oracle = np.array([fockoracle.verify_density_variance(thermal, float(k)).numeric
                       for k in lattice.mode_magnitudes()])
    agrees, agreement = _moment_agreement(thermal, lattice, (seed + 2) % 2**64,
                                          oracle * lattice.volume)
    passed = worst_coth <= 1e-10 and worst_density <= 1e-10 and agrees
    return (
        passed,
        f"coth dev {worst_coth:.2e} (tol 1e-10); density dev {worst_density:.2e} "
        f"(tol 1e-10); lattice agreement {agreement}",
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
    """Run one named suite; numerical failures are reported, not raised.

    The checks run on a pool of ``min(len(checks), usable CPUs)`` threads,
    :func:`check_sampler_moments` first and the rest in suite order; the
    results come in suite order.  An exception other than a
    :class:`~kgf.errors.KGFError`, raised in a check, propagates from here
    once every check has finished.
    """
    try:
        checks = SUITES[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    # the longest check starts first, so no thread is left running it alone
    order = sorted(range(len(checks)),
                   key=lambda i: checks[i] is not check_sampler_moments)
    with ThreadPoolExecutor(min(len(checks), kernels.usable_cpus())) as pool:
        futures = {i: pool.submit(_run, checks[i], seed) for i in order}
    return [futures[i].result() for i in range(len(checks))]


def _run(check, seed: int) -> CheckResult:
    return (check() if check in (check_lambda_closure, check_crossover)
            else check(seed=seed))


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
