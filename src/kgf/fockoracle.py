"""Single-mode number-basis oracle for the tanh/coth variance structure.

Each lattice mode of a thermal-family ensemble reduces to one harmonic
degree of freedom: a ladder operator b with [b, b†] = 1, configuration
variable q = sqrt(hbar_eff/(2 omega)) (b + b†), and Gibbs weights
e^(-x n) on number states.  Then

    <q^2> = (hbar_eff / (2 omega)) * sum_n e^(-x n) (2n+1) / sum_n e^(-x n)
          = (hbar_eff / (2 omega)) * coth(x/2),

evaluated here by truncated summation with a certified tail bound, never
via the coth identity, so it can referee the closed-form spectral
coefficients independently.  The reductions used:

    quantum_thermal: hbar_eff = hbar,    x = hbar omega / kT
    xi_lambda:       hbar_eff = xi hbar, x = xi / lambda
    quantum_vacuum:  ground state, the x -> infinity limit of either.

In each case the predicted configuration variance is 1/(2 c(k)) with c
the ensemble's spectral coefficient, which is what verify_density_variance
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, InvalidInputError, SizeLimitError
from .spectra import Ensemble, SpectralDensity, spectral_coefficient

__all__ = [
    "TAIL_TOL",
    "MIN_CUTOFF",
    "MAX_FOCK_STATES",
    "VACUUM_GIBBS_X",
    "ModeSpec",
    "bose_occupancy",
    "mode_variance_numeric",
    "mode_variance_closed",
    "DensityVarianceCheck",
    "verify_density_variance",
]

TAIL_TOL = 1e-12
MIN_CUTOFF = 8

#: Most number states one mode may sum over (about 100 MB of temporaries).
#: The automatic cutoff grows like ln(1/(TAIL_TOL x))/x as the Gibbs
#: argument x -> 0, so it refuses x below about 1e-5.
MAX_FOCK_STATES = 2**22

#: Gibbs argument standing in for x -> infinity when an ensemble's mode is a
#: pure ground state: e^(-64) ~ 1.6e-28 leaves no excited weight at 1e-12.
VACUUM_GIBBS_X = 64.0


def _auto_cutoff(x: float) -> int:
    """Smallest n with e^(-x n) < TAIL_TOL * (1 - e^(-x)), at least MIN_CUTOFF."""
    target = TAIL_TOL * (-math.expm1(-x))
    return max(MIN_CUTOFF, math.ceil(-math.log(target) / x))


@dataclass(frozen=True)
class ModeSpec:
    """One harmonic mode with Gibbs-weighted number states."""

    omega: float
    hbar_eff: float
    gibbs_x: float
    cutoff: int = 0

    def __post_init__(self):
        for name in ("omega", "hbar_eff", "gibbs_x"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise InvalidInputError(f"{name} must be a finite positive number, "
                                        f"got {value!r}")
        if self.cutoff == 0:
            object.__setattr__(self, "cutoff", _auto_cutoff(self.gibbs_x))
        if self.cutoff > MAX_FOCK_STATES:
            raise SizeLimitError(
                f"cutoff {self.cutoff} exceeds the number-state limit "
                f"MAX_FOCK_STATES = {MAX_FOCK_STATES} (gibbs_x {self.gibbs_x!r})"
            )
        if self.cutoff < MIN_CUTOFF:
            raise InvalidInputError(
                f"cutoff must be >= {MIN_CUTOFF}, got {self.cutoff}"
            )
        if math.exp(-self.gibbs_x * self.cutoff) >= TAIL_TOL:
            raise InvalidInputError(
                f"cutoff {self.cutoff} leaves tail weight "
                f"{math.exp(-self.gibbs_x * self.cutoff):.3e} >= {TAIL_TOL}"
            )


def bose_occupancy(x: float) -> float:
    """Mean occupancy 1/(e^x - 1) of a Gibbs-weighted mode."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"bose_occupancy needs x > 0, got {x!r}")
    return 1.0 / math.expm1(x)


def _tail_mass(mode: ModeSpec) -> float:
    """Discarded Gibbs weight sum_{n>=cutoff} e^(-x n) = e^(-xC)/(1-e^(-x)).

    Exact geometric tail.  The auto-selected cutoff keeps it below
    TAIL_TOL; a hand-picked cutoff can pass the raw construction bound
    yet fail here.
    """
    return math.exp(-mode.gibbs_x * mode.cutoff) / (-math.expm1(-mode.gibbs_x))


def mode_variance_numeric(mode: ModeSpec) -> float:
    """<q^2> by direct Gibbs-weighted summation over number states.

    Raises :class:`AccuracyError` when the discarded Gibbs weight exceeds
    TAIL_TOL.
    """
    n = np.arange(mode.cutoff)
    weights = np.exp(-mode.gibbs_x * n)
    prefactor = mode.hbar_eff / (2.0 * mode.omega)
    value = prefactor * float(weights @ (2 * n + 1)) / float(np.sum(weights))
    tail = _tail_mass(mode)
    if tail > TAIL_TOL:
        raise AccuracyError(
            f"discarded Gibbs weight {tail:.3e} exceeds {TAIL_TOL} "
            f"at cutoff {mode.cutoff}",
            coarse=value,
            refined=value * (1.0 + (2 * mode.cutoff + 1) * tail),
        )
    return value


def mode_variance_closed(mode: ModeSpec) -> float:
    """(hbar_eff / 2 omega) coth(x/2), the closed form the summation targets."""
    return mode.hbar_eff / (2.0 * mode.omega * math.tanh(mode.gibbs_x / 2.0))


def _mode_for_density(density: SpectralDensity, omega: float) -> ModeSpec:
    constants = density.constants
    if density.ensemble is Ensemble.QUANTUM_THERMAL:
        return ModeSpec(omega=omega, hbar_eff=constants.hbar,
                        gibbs_x=constants.hbar * omega / constants.kT)
    if density.ensemble is Ensemble.XI_LAMBDA:
        return ModeSpec(omega=omega, hbar_eff=constants.xi * constants.hbar,
                        gibbs_x=constants.xi / density.lam)
    if density.ensemble is Ensemble.QUANTUM_VACUUM:
        return ModeSpec(omega=omega, hbar_eff=constants.hbar,
                        gibbs_x=VACUUM_GIBBS_X)
    raise InvalidInputError(
        f"no single-mode Gibbs reduction for ensemble {density.ensemble.value!r}"
    )


@dataclass(frozen=True)
class DensityVarianceCheck:
    """One mode's numeric-vs-spectral variance comparison."""

    ensemble: Ensemble
    kmag: float
    numeric: float
    closed_form: float
    rel_err: float


def verify_density_variance(density: SpectralDensity,
                            kmag: float) -> DensityVarianceCheck:
    """Compare the Fock-space <q^2> against 1/(2 c(k)) for one mode.

    The two sides come from unrelated code paths: the left from truncated
    number-basis summation, the right from the spectral coefficient.
    """
    try:
        kmag = float(kmag)
    except (TypeError, ValueError):
        raise InvalidInputError(f"kmag must be a real number, got {kmag!r}") from None
    if not math.isfinite(kmag):
        raise InvalidInputError(f"kmag must be finite, got {kmag}")
    omega = math.hypot(kmag, density.constants.mass)
    if omega <= 0:
        raise InvalidInputError("mode frequency vanishes: massless k = 0 mode")
    mode = _mode_for_density(density, omega)
    numeric = mode_variance_numeric(mode)
    closed = 1.0 / (2.0 * spectral_coefficient(density, kmag))
    rel_err = abs(numeric - closed) / abs(closed)
    return DensityVarianceCheck(
        ensemble=density.ensemble,
        kmag=float(kmag),
        numeric=numeric,
        closed_form=closed,
        rel_err=rel_err,
    )
