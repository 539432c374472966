"""Spectral coefficients of the Gaussian configuration-space densities.

Every density the package samples reads, up to normalization,

    exp[ - int d^Dk/(2pi)^D  c(|k|) |phi~_t(k)|^2 ],

and this module supplies the positive coefficient c(k) for each ensemble
(with omega = sqrt(|k|^2 + m^2)):

    classical equilibrium   omega^2 / (2 kT)
    quantum vacuum          omega / hbar
    quantum thermal         tanh(hbar omega / (2 kT)) * omega / hbar
    xi vacuum               omega / (xi hbar)
    xi lambda               tanh(xi / (2 lambda)) * omega / (xi hbar)

The thermal coefficient interpolates between the classical one at low
wave numbers (when m << kT/hbar) and the vacuum one at high wave numbers.
Choosing lambda = xi / (2 artanh xi) makes the xi-lambda coefficient
collapse onto the vacuum coefficient for every k, which is the closure
the verification suite pins down.

Normalization constants of the densities are never computed; all
downstream checks work with moments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError
from .kernels import PhysicalConstants

__all__ = [
    "Ensemble",
    "SpectralDensity",
    "spectral_coefficient",
    "lambda_of_xi",
    "CrossoverRow",
    "crossover_report",
]


class Ensemble(enum.Enum):
    CLASSICAL_EQUILIBRIUM = "classical_equilibrium"
    QUANTUM_VACUUM = "quantum_vacuum"
    QUANTUM_THERMAL = "quantum_thermal"
    XI_VACUUM = "xi_vacuum"
    XI_LAMBDA = "xi_lambda"


def lambda_of_xi(xi: float) -> float:
    """xi / (2 artanh xi): the Gibbs scale that restores the vacuum density.

    Defined for 0 < xi < 1; strictly decreasing from 1/2 (xi -> 0) towards
    0 (xi -> 1).
    """
    if not (isinstance(xi, (int, float)) and math.isfinite(xi)):
        raise DomainError(f"xi must be a finite number, got {xi!r}")
    if not 0.0 < xi < 1.0:
        raise DomainError(f"lambda_of_xi needs 0 < xi < 1, got {xi}")
    return xi / (2.0 * math.atanh(xi))


@dataclass(frozen=True)
class SpectralDensity:
    """One Gaussian ensemble over field configurations.

    ``lam`` is the free Gibbs parameter of the xi-lambda ensemble and is
    ignored elsewhere; pass ``lam=None`` there.
    """

    ensemble: Ensemble
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    lam: float | None = None

    def __post_init__(self):
        ens = self.ensemble
        if not isinstance(ens, Ensemble):
            raise InvalidInputError(f"ensemble must be an Ensemble, got {ens!r}")
        if ens in (Ensemble.CLASSICAL_EQUILIBRIUM, Ensemble.QUANTUM_THERMAL):
            if self.constants.kT <= 0:
                raise InvalidInputError(f"{ens.value} requires kT > 0")
        if ens is Ensemble.XI_LAMBDA:
            if self.lam is None or not (math.isfinite(self.lam) and self.lam > 0):
                raise InvalidInputError(
                    f"xi_lambda requires lambda > 0, got {self.lam!r}"
                )
        elif self.lam is not None:
            raise InvalidInputError("lambda is only meaningful for xi_lambda")

    @classmethod
    def xi_lambda_closed(cls, constants: PhysicalConstants) -> "SpectralDensity":
        """xi-lambda ensemble at the closure value lambda(xi); needs 0 < xi < 1."""
        return cls(Ensemble.XI_LAMBDA, constants, lam=lambda_of_xi(constants.xi))


def spectral_coefficient(density: SpectralDensity, kmag):
    """c(|k|) for the given ensemble; vectorized over ``kmag``.

    Negative inputs are folded to |k| (the coefficient is even).  Strictly
    positive for every finite k when the mass is positive; a |k| whose
    coefficient overflows to infinity is refused.  Where k^2 + m^2
    overflows, omega comes from ``np.hypot`` instead, so the coefficients
    linear in omega stay finite up to |k| ~ 1.8e308.  The numerator is
    halved, not the denominator doubled, so a kT or lambda past half the
    float range does not overflow ``2 kT`` and leave c = 0.  Halving a normal
    numerator is exact, so wherever 2 kT is finite the bits are those of
    ``x / (2 kT)``.
    """
    k = np.abs(np.asarray(kmag, dtype=float))
    if not np.all(np.isfinite(k)):
        raise InvalidInputError("kmag must be finite")
    c = density.constants
    ens = density.ensemble
    with np.errstate(over="ignore"):
        omega = np.sqrt(k * k + c.mass * c.mass)
        big = np.isinf(omega)
        if np.any(big):
            omega = np.where(big, np.hypot(k, c.mass), omega)
        if ens is Ensemble.CLASSICAL_EQUILIBRIUM:
            out = omega * omega * 0.5 / c.kT
        elif ens is Ensemble.QUANTUM_VACUUM:
            out = omega / c.hbar
        elif ens is Ensemble.QUANTUM_THERMAL:
            out = np.tanh(c.hbar * omega * 0.5 / c.kT) * omega / c.hbar
        elif ens is Ensemble.XI_VACUUM:
            out = omega / (c.xi * c.hbar)
        else:  # Ensemble.XI_LAMBDA
            out = math.tanh(c.xi * 0.5 / density.lam) * omega / (c.xi * c.hbar)
    overflow = ~np.isfinite(out)
    if np.any(overflow):
        raise InvalidInputError(
            f"{ens.value} coefficient overflows at |k| = {k[overflow].flat[0]:g}"
        )
    if np.ndim(kmag) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CrossoverRow:
    k: float
    c_T: float
    c_E: float
    c_Q: float
    rel_dev_E: float
    rel_dev_Q: float


def crossover_report(constants: PhysicalConstants, k_grid) -> list:
    """Thermal coefficient against its two asymptotes on a k grid.

    Per grid point: c_T, c_E, c_Q and the relative deviations of c_T from
    each.  The low-k claim (c_T -> c_E) is only quantitative when
    m << kT/hbar; the verification suite certifies its thresholds at
    m = 0.01 kT/hbar.  kT must be > 0, as the thermal density requires.
    """
    k = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if k.size == 0:
        raise InvalidInputError("k_grid must not be empty")

    thermal = SpectralDensity(Ensemble.QUANTUM_THERMAL, constants)
    classical = SpectralDensity(Ensemble.CLASSICAL_EQUILIBRIUM, constants)
    vacuum = SpectralDensity(Ensemble.QUANTUM_VACUUM, constants)
    c_T = np.atleast_1d(spectral_coefficient(thermal, k))
    c_E = np.atleast_1d(spectral_coefficient(classical, k))
    c_Q = np.atleast_1d(spectral_coefficient(vacuum, k))
    return [
        CrossoverRow(
            k=float(kv),
            c_T=float(t),
            c_E=float(e),
            c_Q=float(q),
            rel_dev_E=float(abs(t - e) / e),
            rel_dev_Q=float(abs(t - q) / q),
        )
        for kv, t, e, q in zip(k, c_T, c_E, c_Q)
    ]
