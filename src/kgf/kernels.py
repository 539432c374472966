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
in the angle in D=2 and Gauss-Legendre in u in D=3.
"""

from __future__ import annotations

import enum
import math
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
    "positivity_check",
]

#: Relative tolerance for the cutoff-doubling convergence check.
CONVERGENCE_RTOL = 1e-8

#: Gaussian tails are below 1e-12 of the total past this many k-space sigmas.
CUTOFF_SIGMAS = 12.0

#: Largest ``QuadratureSpec.nodes``.  The doubled check of a D>=2 integral
#: evaluates (2 * nodes)^2 points per packet pair.
MAX_QUADRATURE_NODES = 1024


def _require_finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")


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
    in D >= 2, as many direction points per radius.  ``cutoff=None`` lets
    each inner product pick |kbar| + 12/sigma over the two packets involved.
    ``nodes`` lies in [16, MAX_QUADRATURE_NODES].
    """

    cutoff: float | None = None
    nodes: int = 256

    def __post_init__(self):
        if self.cutoff is not None:
            _require_finite("cutoff", self.cutoff)
            if self.cutoff <= 0:
                raise InvalidInputError(f"cutoff must be > 0, got {self.cutoff}")
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


@lru_cache(maxsize=32)
def _radial_rule(dim: int, nodes: int):
    """Radii on [0, 1] with weights for the measure |S^(D-1)| r^(D-1), and
    direction cosines with weights that take the mean over directions."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * (x + 1.0)
    radial = w * math.pi ** (dim / 2) / math.gamma(dim / 2) * r ** (dim - 1)
    if dim == 1:
        return r, radial, np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if dim == 2:
        theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
        return r, radial, np.cos(theta), np.full(nodes, 1.0 / nodes)
    return r, radial, x, 0.5 * w


def _resolve_cutoff(spec: KernelSpec, f: WavePacket, g: WavePacket) -> float:
    if spec.quadrature.cutoff is not None:
        return spec.quadrature.cutoff
    return max(f.suggested_cutoff, g.suggested_cutoff)


def _variant_weight(spec: KernelSpec, omega: np.ndarray) -> np.ndarray:
    """Mass-shell weight multiplying f~* g~ in the reduced integral."""
    c = spec.constants
    base = c.hbar / (2.0 * omega)
    if spec.variant is KernelVariant.QUANTUM:
        return base
    if spec.variant is KernelVariant.CLASSICAL:
        return base * (c.kT / c.hbar) * (2.0 / omega)
    return base * c.xi


def _reduced_integral(spec: KernelSpec, f: WavePacket, g: WavePacket,
                      nodes: int, cutoff: float) -> complex:
    """One radial pass.  conj(f~) g~ = conj(A_f T_f) A_g T_g (2 pi sigma_f
    sigma_g)^D exp(c0 - alpha r^2 + b.k); each direction term is the one
    exponent exp(c0 - alpha r^2 + r s u), s = sqrt(b.b), of modulus <= 1."""
    r, radial, u, mean = _radial_rule(spec.dim, nodes)
    r = cutoff * r
    omega = np.sqrt(r * r + spec.constants.mass ** 2)
    sf2, sg2 = f.width_x ** 2, g.width_x ** 2
    kf, kg = np.asarray(f.carrier_wavevector), np.asarray(g.carrier_wavevector)
    xf, xg = np.asarray(f.center_x), np.asarray(g.center_x)
    b = sf2 * kf + sg2 * kg + 1j * (xf - xg)
    c0 = -0.5 * (sf2 * (kf @ kf) + sg2 * (kg @ kg)) - 1j * (kf @ xf - kg @ xg)
    exponent = (c0 - 0.5 * (sf2 + sg2) * r * r)[:, None]
    directions = np.exp(exponent + np.sqrt(complex(b @ b)) * r[:, None] * u) @ mean
    du_f, du_g = omega - f.carrier_freq, omega - g.carrier_freq
    time = np.exp(-0.5 * ((f.width_t * du_f) ** 2 + (g.width_t * du_g) ** 2)
                  - 1j * (du_f * f.center_t - du_g * g.center_t))
    # the (2 pi)^D of the space factors cancels the measure's 1/(2 pi)^D
    scale = (2.0 * math.pi * f.amplitude.conjugate() * g.amplitude * f.width_t * g.width_t
             * (f.width_x * g.width_x) ** spec.dim * cutoff ** spec.dim)
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
    the radius and the direction rule together, and requires the two
    estimates to agree to ``CONVERGENCE_RTOL`` relative to the
    Cauchy-Schwarz scale sqrt((f,f)(g,g)).  That scale dominates |(f,g)|
    and is invariant under rescaling either packet, so pairs whose inner
    product is small through cancellation do not fail spuriously.  A
    non-finite estimate, or a vanishing scale for packets of nonzero
    amplitude, is an accuracy failure too: neither can be checked.
    """
    if not (f.dim == g.dim == spec.dim):
        raise InvalidInputError(
            f"dimension mismatch: kernel D={spec.dim}, f D={f.dim}, g D={g.dim}"
        )
    nodes = spec.quadrature.nodes
    cutoff = _resolve_cutoff(spec, f, g)
    value = _reduced_integral(spec, f, g, nodes, cutoff)
    if not check:
        return value, None

    refined = _reduced_integral(spec, f, g, 2 * nodes, 2.0 * cutoff)
    if f is g or f == g:
        # (f, f) refined is the Cauchy-Schwarz scale itself: one pass, not three
        norm_f = norm_g = refined.real
    else:
        norm_f = _reduced_integral(spec, f, f, 2 * nodes, 2.0 * cutoff).real
        norm_g = _reduced_integral(spec, g, g, 2 * nodes, 2.0 * cutoff).real
    if not np.all(np.isfinite([value, refined, norm_f, norm_g])):
        raise AccuracyError(
            f"quadrature gave a non-finite estimate: base {value} vs doubled "
            f"{refined}, norms {norm_f} and {norm_g}",
            coarse=value,
            refined=refined,
        )
    scale = math.sqrt(max(norm_f, 0.0) * max(norm_g, 0.0))
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
    """(f, f) as a real number.

    The imaginary part must vanish to tolerance; it is discarded after the
    check.  The result is nonnegative for every valid packet because the
    on-shell integrand is |f~|^2 times a positive weight.
    """
    value = inner_product(spec, f, f, check=check)
    tol = 1e-10 * max(abs(value.real), 1e-300)
    if abs(value.imag) > tol:
        raise NumericConsistencyError(
            f"(f, f) should be real, got imaginary part {value.imag:.3e}",
            coarse=value,
            refined=value.real,
        )
    return value.real
