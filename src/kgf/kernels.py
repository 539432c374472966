"""Gaussian test functions and the invariant inner products on the mass shell.

Conventions used throughout the package:

* Fourier transform  f~(k0, k) = int dt d^Dx exp(i(k0*t - k.x)) f(t, x),
  metric signature (+,-,...), so that the positive-frequency step theta(k0)
  selects on-shell modes with k0 = omega_k = sqrt(|k|^2 + m^2).
* The inner products conjugate their FIRST argument.
* Test functions are complex-modulated Gaussians.  They are closed under
  Fourier transformation, so every transform here is evaluated in closed
  form and only the final D-dimensional wave-vector integral is done by
  quadrature.

After the frequency integral is carried out against the on-shell delta,
the three kernel variants reduce to

    quantum:    hbar * int d^Dk/(2pi)^D  (1/(2 omega_k)) f~*(omega_k,k) g~(omega_k,k)
    classical:  same integrand times (kT/hbar) * (2/omega_k)
    xi-scaled:  same integrand times xi

For Gaussian packets f~* g~ depends on the direction of k only through
exp(b.k), so each reduced form is one Gauss-Legendre integral in |k| times
a mean over the direction cosine u: u = +-1 in D=1, the periodic trapezoid
in the angle in D=2 and Gauss-Legendre in u in D=3.  That mean is of
exp(z u) with |z| at most the pass's reach |s| cutoff, and each pass
derives its direction count from that reach (:func:`_direction_count`),
as it derives its cutoff from the packets.  The Gauss-Legendre
rule comes from Newton's method on the Legendre recurrence, started from
Tricomi's asymptotic nodes, in O(n) vectorised steps per iteration.
Every checked inner product goes through :func:`inner_products`, which
runs each distinct pass of its pairs once, in one batch: in D >= 2 on one
thread per usable CPU, with the same bits on any number of them.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, InvalidInputError, NumericConsistencyError,
                     SizeLimitError)

__all__ = [
    "PhysicalConstants",
    "WavePacket",
    "QuadratureSpec",
    "KernelVariant",
    "KernelSpec",
    "QuadratureDiagnostics",
    "fourier_transform",
    "inner_product",
    "inner_product_with_diagnostics",
    "inner_products",
    "positivity_check",
    "real_norm",
]

#: Relative tolerance for the cutoff-doubling convergence check.
CONVERGENCE_RTOL = 1e-8

#: Gaussian tails are below 1e-12 of the total past this many k-space sigmas.
CUTOFF_SIGMAS = 12.0

#: Largest ``QuadratureSpec.nodes``.  The doubled check of a D>=2 integral
#: evaluates (2 * nodes) radii times its derived direction count, at most
#: 2 * nodes, per packet pair, on one grid per pass; a pass runs on each
#: usable CPU, so one such grid stays resident per thread: at most 64 MiB
#: complex, or 32 MiB real for an (f, f) pass, at 1024.
MAX_QUADRATURE_NODES = 1024


def _require_finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")


def _pow(x: float, n: int) -> float:
    """``x ** n`` for ``x >= 0``; inf, as numpy gives, where the power overflows."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PhysicalConstants:
    """Scales of the theory.  Defaults are natural units.

    ``xi`` is the dimensionless rescaling of the commutator and is only
    consulted by the xi-scaled kernel and the xi ensembles.
    """

    hbar: float = 1.0
    kT: float = 1.0
    mass: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "kT", "mass", "xi"):
            _require_finite(name, getattr(self, name))
        if self.hbar <= 0:
            raise InvalidInputError(f"hbar must be > 0, got {self.hbar}")
        if self.kT < 0:
            raise InvalidInputError(f"kT must be >= 0, got {self.kT}")
        if self.mass < 0:
            raise InvalidInputError(f"mass must be >= 0, got {self.mass}")
        if self.xi <= 0:
            raise InvalidInputError(f"xi must be > 0, got {self.xi}")


def _as_vector(value, dim, name):
    """``value`` as a ``dim``-tuple of floats; None means the zero vector."""
    if value is None:
        return (0.0,) * dim
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if vec.shape != (dim,):
        raise InvalidInputError(
            f"{name} must have {dim} component(s), got shape {vec.shape}"
        )
    return tuple(float(v) for v in vec)


@dataclass(frozen=True)
class WavePacket:
    """Complex-modulated Gaussian test function.

    In position space:

        f(t, x) = A * exp(-(t-t0)^2/(2 tau^2)) * exp(-|x-x0|^2/(2 sigma^2))
                    * exp(-i(wbar*t - kbar.x))

    a Schwartz-class packet centred at (t0, x0), of temporal width tau and
    spatial width sigma, riding on a positive-frequency carrier (wbar, kbar).
    Its Fourier transform is again a Gaussian, shifted to the carrier, so
    momentum-space values never require numerical integration.  Omitted
    (None) ``center_x`` and ``carrier_wavevector`` are the zero vector of
    length ``dim``.
    """

    dim: int = 1
    center_t: float = 0.0
    center_x: tuple | None = None
    width_t: float = 1.0
    width_x: float = 1.0
    carrier_freq: float = 0.0
    carrier_wavevector: tuple | None = None
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidInputError(f"dim must be 1, 2 or 3, got {self.dim}")
        object.__setattr__(self, "center_x", _as_vector(self.center_x, self.dim, "center_x"))
        object.__setattr__(
            self,
            "carrier_wavevector",
            _as_vector(self.carrier_wavevector, self.dim, "carrier_wavevector"),
        )
        for name in ("center_t", "width_t", "width_x", "carrier_freq"):
            _require_finite(name, getattr(self, name))
        amp = complex(self.amplitude)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise InvalidInputError(f"amplitude must be finite, got {amp!r}")
        object.__setattr__(self, "amplitude", amp)
        if self.width_t <= 0 or self.width_x <= 0:
            raise InvalidInputError(
                f"widths must be > 0, got tau={self.width_t}, sigma={self.width_x}"
            )

    @property
    def suggested_cutoff(self) -> float:
        """|kbar| + 12/sigma: beyond this the spatial Gaussian is < 1e-12."""
        kbar = math.sqrt(sum(c * c for c in self.carrier_wavevector))
        return kbar + CUTOFF_SIGMAS / self.width_x


class KernelVariant(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"
    XI_SCALED = "xi"


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the reduced wave-vector integral.

    The rule is radial: ``nodes`` Gauss-Legendre radii on [0, cutoff] and,
    in D >= 2, a mean over directions at each radius.  The Gauss-Legendre
    nodes and weights come from Newton's method on the three-term Legendre
    recurrence (:func:`_gauss_legendre`), not from an eigenvalue solve.
    The cutoff is derived, never set: each inner product takes
    |kbar| + 12/sigma of whichever of its two packets reaches further.
    The direction count is derived too, from the reach |s| cutoff of the
    pass's exponent exp(r s u): ceil(reach) + 20 midpoint angles in D = 2,
    the next power of two >= 0.75 reach + 16 Gauss-Legendre cosines in
    D = 3, each at most ``nodes`` (all of it for a non-finite reach).
    Either mean is then within 1e-14 of its limit, relative to
    e^|Re z|, for every z = r s.  ``nodes`` lies in [16, MAX_QUADRATURE_NODES].
    """

    nodes: int = 256

    def __post_init__(self):
        if self.nodes < 16:
            raise InvalidInputError(f"need at least 16 quadrature nodes, got {self.nodes}")
        if self.nodes > MAX_QUADRATURE_NODES:
            raise SizeLimitError(
                f"refusing {self.nodes} quadrature nodes "
                f"(limit MAX_QUADRATURE_NODES = {MAX_QUADRATURE_NODES})"
            )


@dataclass(frozen=True)
class KernelSpec:
    """Which invariant inner product to evaluate, and how."""

    variant: KernelVariant = KernelVariant.QUANTUM
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    dim: int = 1
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidInputError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.variant is KernelVariant.CLASSICAL and self.constants.kT <= 0:
            raise InvalidInputError("classical kernel requires kT > 0")
        # xi > 0 already guaranteed by PhysicalConstants


def fourier_transform(packet: WavePacket, k0, kvec) -> complex | np.ndarray:
    """Evaluate f~(k0, k) in closed form.

    ``k0`` may be a scalar or array; ``kvec`` must broadcast against it with
    a trailing axis of length ``packet.dim``.  Scalars in D=1 are accepted.
    """
    k0_arr = np.asarray(k0, dtype=float)
    kvec_arr = np.asarray(kvec, dtype=float)
    if kvec_arr.ndim == 0:
        kvec_arr = kvec_arr.reshape(1)
    if kvec_arr.shape[-1] != packet.dim:
        raise InvalidInputError(
            f"kvec trailing axis must have length {packet.dim}, got shape {kvec_arr.shape}"
        )
    if not (np.all(np.isfinite(k0_arr)) and np.all(np.isfinite(kvec_arr))):
        raise InvalidInputError("evaluation point must be finite")

    tau = packet.width_t
    sigma = packet.width_x
    du = k0_arr - packet.carrier_freq
    time_part = tau * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (tau * du) ** 2)
    phase = du * packet.center_t

    space_part = (sigma * math.sqrt(2.0 * math.pi)) ** packet.dim
    dk = kvec_arr - np.asarray(packet.carrier_wavevector)
    space_part = space_part * np.exp(-0.5 * sigma**2 * np.sum(dk * dk, axis=-1))
    phase = phase - np.sum(dk * np.asarray(packet.center_x), axis=-1)

    result = packet.amplitude * time_part * space_part * np.exp(1j * phase)
    if np.ndim(k0) == 0 and np.ndim(result) == 0:
        return complex(result)
    return result


def _legendre(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    built once per n and read-only.

    Newton's method on the recurrence, started from Tricomi's asymptotic
    nodes, for the n // 2 positive nodes (and 0 for odd n); the weights
    are 2 / ((1 - x^2) P_n'(x)^2).  It takes O(n) vectorised steps per
    iteration, and three or four iterations, where numpy's ``leggauss``
    solves an n x n eigenproblem.  See Hale and Townsend, SIAM J. Sci.
    Comput. 35(2), A652 (2013).
    """
    half = n // 2
    theta = math.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    x = np.cos(theta) * (1 - (n - 1) / (8 * n**3)
                         - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4))
    x = np.append(x, [0.0] * (n % 2))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = (np.concatenate((-x, x[half - 1::-1])), np.concatenate((w, w[half - 1::-1])))
    for array in rule:
        array.flags.writeable = False
    return rule


def _radial_rule(dim: int, nodes: int):
    """Radii on [0, 1] with weights for the measure |S^(D-1)| r^(D-1)."""
    x, w = _gauss_legendre(nodes)
    r = 0.5 * (x + 1.0)
    return r, w * math.pi ** (dim / 2) / math.gamma(dim / 2) * r ** (dim - 1)


def _direction_count(dim: int, nodes: int, s, cutoff: float) -> int:
    """Direction points for the mean of exp(z u) over directions at every
    z = r s of a pass over radii [0, cutoff], |z| <= reach = |s| cutoff.

    The mean is entire in z, and its error falls below rounding, relative
    to e^|Re z|, once the count passes a small multiple of |z|: the
    midpoint angles of D = 2 (the periodic trapezoid) need about |z|, the
    Gauss-Legendre cosines of D = 3 about e|z|/4 (Trefethen and Weideman,
    SIAM Rev. 56(3), 385 (2014); Trefethen, SIAM Rev. 50(1), 67 (2008)).
    D = 2 takes ceil(reach) + 20 angles, D = 3 the next power of two >=
    0.75 reach + 16, so few counts are built; both at most ``nodes``,
    which a non-finite reach takes.
    """
    if dim == 1:
        return 2
    reach = abs(complex(s)) * cutoff
    if not math.isfinite(reach):
        return nodes
    if dim == 2:
        return min(nodes, math.ceil(reach) + 20)
    return min(nodes, 1 << (math.ceil(0.75 * reach) + 15).bit_length())


def _direction_rule(dim: int, count: int):
    """``count`` direction cosines with weights that take the mean over
    directions: u = +-1 in D = 1, midpoint angles in D = 2, Gauss-Legendre
    in u in D = 3."""
    if dim == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if dim == 2:
        theta = (np.arange(count) + 0.5) * (math.pi / count)
        return np.cos(theta), np.full(count, 1.0 / count)
    x, w = _gauss_legendre(count)
    return x, 0.5 * w


def _variant_weight(spec: KernelSpec, omega: np.ndarray) -> np.ndarray:
    """Mass-shell weight multiplying f~* g~ in the reduced integral."""
    c = spec.constants
    base = c.hbar / (2.0 * omega)
    if spec.variant is KernelVariant.QUANTUM:
        return base
    if spec.variant is KernelVariant.CLASSICAL:
        return base * (c.kT / c.hbar) * (2.0 / omega)
    return base * c.xi


def usable_cpus() -> int:
    """CPUs this process may run on: the D >= 2 passes and ``kgf verify``'s
    pool take one thread each, at most."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _passes(spec: KernelSpec, jobs: list) -> list:
    """:func:`_reduced_integral` of each ``(f, g, nodes, cutoff)`` in ``jobs``.

    In D >= 2 the passes run on one thread per usable CPU, which live only
    for this batch: numpy's ``exp`` releases the GIL, and a pass computes
    the same bits on any thread.  D = 1 passes, of 2 * nodes points each,
    run inline.
    """
    for f, g, nodes, cutoff in jobs:  # each cached rule built before any thread reads it
        _gauss_legendre(nodes)
        if spec.dim == 3:
            _gauss_legendre(_direction_count(3, nodes, _exponent(f, g)[1], cutoff))
    workers = min(usable_cpus(), len(jobs)) if spec.dim > 1 else 1
    if workers < 2:
        return [_reduced_integral(spec, *job) for job in jobs]
    values, failures = [None] * len(jobs), []
    queue = iter(enumerate(jobs))  # one next() at a time, under the GIL

    def work():
        try:
            for index, job in queue:
                values[index] = _reduced_integral(spec, *job)
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return values


def _direction_means(c0, s, r: np.ndarray, u: np.ndarray, mean: np.ndarray,
                     alpha: float) -> np.ndarray:
    """The mean over directions of exp(c0 - alpha r^2 + r s u) at each radius.

    One grid, float64 when ``c0`` and ``s`` are real and complex otherwise,
    filled by outer products and exponentiated in place.  The mean is an
    ``einsum``, not a BLAS call: a threaded OpenBLAS entered from two
    threads at once grows the resident set, and on a shared 2-vCPU host its
    own threads took 8 ms for a 512^2 complex mean that one does in 0.2 ms.
    """
    grid = np.empty((len(r), len(u)), dtype=np.result_type(c0, s, r))
    np.multiply.outer(s * r, u, out=grid)
    grid += (c0 - alpha * r * r)[:, None]
    return np.einsum("ij,j->i", np.exp(grid, out=grid), mean)


@np.errstate(over="ignore", invalid="ignore")
def _exponent(f: WavePacket, g: WavePacket) -> tuple:
    """``(c0, s, alpha)``: conj(f~) g~ = conj(A_f T_f) A_g T_g (2 pi sigma_f
    sigma_g)^D exp(c0 - alpha r^2 + b.k), and each direction term is the
    one exponent exp(c0 - alpha r^2 + r s u), s = sqrt(b.b), of modulus
    <= 1.  ``c0`` and ``s`` are real for every (f, f)."""
    sf2, sg2 = _pow(f.width_x, 2), _pow(g.width_x, 2)
    kf, kg = np.asarray(f.carrier_wavevector), np.asarray(g.carrier_wavevector)
    xf, xg = np.asarray(f.center_x), np.asarray(g.center_x)
    b = sf2 * kf + sg2 * kg + 1j * (xf - xg)
    c0 = -0.5 * (sf2 * (kf @ kf) + sg2 * (kg @ kg)) - 1j * (kf @ xf - kg @ xg)
    s = np.sqrt(complex(b @ b))
    if c0.imag == 0.0 and s.imag == 0.0:
        c0, s = c0.real, s.real
    return c0, s, 0.5 * (sf2 + sg2)


@np.errstate(over="ignore", invalid="ignore")
def _reduced_integral(spec: KernelSpec, f: WavePacket, g: WavePacket,
                      nodes: int, cutoff: float) -> complex:
    """One radial pass of :func:`_exponent`'s integrand: ``nodes`` radii
    on [0, cutoff] and :func:`_direction_count` directions for its reach.
    Overflowing scales give inf or nan without a warning: the caller
    refuses a non-finite result."""
    c0, s, alpha = _exponent(f, g)
    r, radial = _radial_rule(spec.dim, nodes)
    u, mean = _direction_rule(spec.dim, _direction_count(spec.dim, nodes, s, cutoff))
    r = cutoff * r
    omega = np.sqrt(r * r + _pow(spec.constants.mass, 2))
    directions = _direction_means(c0, s, r, u, mean, alpha)
    du_f, du_g = omega - f.carrier_freq, omega - g.carrier_freq
    time = np.exp(-0.5 * ((f.width_t * du_f) ** 2 + (g.width_t * du_g) ** 2)
                  - 1j * (du_f * f.center_t - du_g * g.center_t))
    # the (2 pi)^D of the space factors cancels the measure's 1/(2 pi)^D
    scale = (2.0 * math.pi * f.amplitude.conjugate() * g.amplitude * f.width_t * g.width_t
             * _pow(f.width_x * g.width_x, spec.dim) * _pow(cutoff, spec.dim))
    return complex(scale * ((radial * _variant_weight(spec, omega) * time) @ directions))


@dataclass(frozen=True)
class QuadratureDiagnostics:
    """Base estimate versus the doubled-cutoff, doubled-node refinement."""

    value: complex
    refined: complex
    cutoff: float
    nodes: int
    relative_shift: float


def inner_product_with_diagnostics(spec: KernelSpec, f: WavePacket, g: WavePacket,
                                   check: bool = True):
    """Inner product plus the convergence diagnostics behind it.

    The check doubles both the cutoff and the node count, so it certifies
    the radius and the direction rule together: the refined pass derives
    its direction count from twice the reach under twice the cap, so it
    never has fewer directions than the base pass.  It requires the two
    estimates to agree to ``CONVERGENCE_RTOL`` relative to the
    Cauchy-Schwarz scale sqrt((f,f)(g,g)), each norm the packet's refined
    (h, h) at its own doubled cutoff.  That scale dominates |(f,g)| and is
    invariant under rescaling either packet, so pairs whose inner product
    is small through cancellation do not fail spuriously.  A non-finite
    estimate, or a vanishing scale for packets of nonzero amplitude, is an
    accuracy failure too: neither can be checked.
    """
    return inner_products(spec, [(f, g)], check)[0]


def inner_products(spec: KernelSpec, pairs, check: bool = True) -> list:
    """:func:`inner_product_with_diagnostics` of each ``(f, g)`` in ``pairs``.

    With ``check`` each pair takes its base pass, its doubled pass and, for
    each packet h, the doubled (h, h) at h's own doubled cutoff: for (f, f)
    that norm pass is the doubled pass itself.  Equal passes run once, all
    in one :func:`_passes` batch.  The checks follow in the order of
    ``pairs``, so a pair of the wrong dimension is refused after the checks
    of the pairs before it.
    """
    nodes, plans, mismatch = spec.quadrature.nodes, [], None
    for f, g in pairs:
        if not (f.dim == g.dim == spec.dim):
            mismatch = InvalidInputError(
                f"dimension mismatch: kernel D={spec.dim}, f D={f.dim}, g D={g.dim}"
            )
            break
        cutoff = max(f.suggested_cutoff, g.suggested_cutoff)
        plan = [(f, g, nodes, cutoff)]
        if check:
            plan += [(f, g, 2 * nodes, 2.0 * cutoff)]
            plan += [(h, h, 2 * nodes, 2.0 * h.suggested_cutoff) for h in (f, g)]
        plans.append(plan)
    jobs = list(dict.fromkeys(job for plan in plans for job in plan))
    values = dict(zip(jobs, _passes(spec, jobs)))
    results = [_diagnosis(plan, [values[job] for job in plan]) for plan in plans]
    if mismatch is not None:
        raise mismatch
    return results


def _diagnosis(plan: list, values: list):
    """``(value, diagnostics)`` from the ``values`` of one pair's ``plan``
    in :func:`inner_products`; raises if the check fails."""
    value = values[0]
    if len(values) == 1:
        return value, None
    f, g, nodes, cutoff = plan[0]
    refined, norm_f, norm_g = values[1], values[2].real, values[3].real
    if not np.all(np.isfinite([value, refined, norm_f, norm_g])):
        raise AccuracyError(
            f"quadrature gave a non-finite estimate: base {value} vs doubled "
            f"{refined}, norms {norm_f} and {norm_g}",
            coarse=value,
            refined=refined,
        )
    # one root each: the product of the norms can overflow or underflow
    scale = math.sqrt(max(norm_f, 0.0)) * math.sqrt(max(norm_g, 0.0))
    if scale == 0.0 and f.amplitude != 0 and g.amplitude != 0:
        raise AccuracyError(
            f"quadrature found no weight: the norms of packets with nonzero "
            f"amplitude came out {norm_f} and {norm_g} at cutoff {cutoff}",
            coarse=value,
            refined=refined,
        )
    rel = abs(refined - value) / scale if scale > 0.0 else 0.0
    diag = QuadratureDiagnostics(
        value=value,
        refined=refined,
        cutoff=cutoff,
        nodes=nodes,
        relative_shift=rel,
    )
    if rel > CONVERGENCE_RTOL:
        raise AccuracyError(
            f"quadrature did not converge: base {value} vs doubled {refined} "
            f"(relative shift {rel:.3e})",
            coarse=value,
            refined=refined,
        )
    return value, diag


def inner_product(spec: KernelSpec, f: WavePacket, g: WavePacket,
                  check: bool = True) -> complex:
    """The invariant inner product (f, g) for the chosen kernel variant.

    Conjugates ``f``.  Raises :class:`AccuracyError` if the cutoff-doubling
    check exceeds tolerance (disable with ``check=False`` for speed).
    """
    value, _ = inner_product_with_diagnostics(spec, f, g, check=check)
    return value


def positivity_check(spec: KernelSpec, f: WavePacket, check: bool = True) -> float:
    """(f, f) as a real number, by :func:`real_norm`.

    The result is nonnegative for every valid packet because the on-shell
    integrand is |f~|^2 times a positive weight.
    """
    value, _ = inner_product_with_diagnostics(spec, f, f, check=check)
    return real_norm(value)


def real_norm(value: complex) -> float:
    """An (f, f) as a real number: its imaginary part must vanish to 1e-10
    of its real part, and is discarded after the check."""
    tol = 1e-10 * max(abs(value.real), 1e-300)
    if abs(value.imag) > tol:
        raise NumericConsistencyError(
            f"(f, f) should be real, got imaginary part {value.imag:.3e}",
            coarse=value,
            refined=value.real,
        )
    return value.real
