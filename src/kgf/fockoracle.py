"""Fock-space oracles, independent of the code they referee.

:func:`fock_vacuum_expectation` represents the algebra of
:mod:`kgf.opalgebra` on Fock space, a[f_i] = c_i and adag[f_j] =
sum_k (f_j, f_k) c_k†, and so referees its contraction kernel.

Each lattice mode of a thermal-family ensemble reduces to one harmonic
degree of freedom: a ladder operator b with [b, b†] = 1, configuration
variable q = sqrt(hbar_eff/(2 omega)) (b + b†), and Gibbs weights
e^(-x n) on number states.  Then

    <q^2> = (hbar_eff / (2 omega)) * sum_n e^(-x n) (2n+1) / sum_n e^(-x n)
          = (hbar_eff / (2 omega)) * coth(x/2),

evaluated here by truncated summation, never via the coth identity, so it
can referee the closed-form spectral coefficients independently.  Each
mode's cutoff is derived from its Gibbs argument, and one certification
remains: :func:`mode_variance_numeric` refuses a sum whose exact discarded
tail exceeds TAIL_TOL.  The reductions used:

    quantum_thermal: hbar_eff = hbar,    x = hbar omega / kT
    xi_lambda:       hbar_eff = xi hbar, x = xi / lambda
    quantum_vacuum:  ground state, the x -> infinity limit of either.

In each case the predicted configuration variance is 1/(2 c(k)) with c
the ensemble's spectral coefficient, which is what verify_density_variance
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, InvalidInputError, SizeLimitError
from .spectra import Ensemble, SpectralDensity, spectral_coefficient

__all__ = [
    "TAIL_TOL",
    "MIN_CUTOFF",
    "MAX_FOCK_STATES",
    "VACUUM_GIBBS_X",
    "ModeSpec",
    "mode_variance_numeric",
    "mode_variance_closed",
    "DensityVarianceCheck",
    "verify_density_variance",
    "fock_vacuum_expectation",
]

TAIL_TOL = 1e-12
MIN_CUTOFF = 8

#: Most number states one mode may sum over (about 100 MB of temporaries).
#: The automatic cutoff grows like ln(1/(TAIL_TOL x))/x as the Gibbs
#: argument x -> 0, so it refuses x below about 1e-5.
MAX_FOCK_STATES = 2**22

#: Most occupation states :func:`fock_vacuum_expectation` holds for two
#: letters at once, as many as the contraction kernel it referees memoises.
MAX_REFEREE_STATES = 2**17

#: Gibbs argument standing in for x -> infinity when an ensemble's mode is a
#: pure ground state: e^(-64) ~ 1.6e-28 leaves no excited weight at 1e-12.
VACUUM_GIBBS_X = 64.0


def _auto_cutoff(x: float) -> int:
    """Smallest n with e^(-x n) < TAIL_TOL * (1 - e^(-x)), at least MIN_CUTOFF;
    refused past MAX_FOCK_STATES while n is a float, which may be inf."""
    target = TAIL_TOL * (-math.expm1(-x))  # 0 below x ~ 5e-312
    states = -math.log(target) / x if target > 0 else math.inf
    if states > MAX_FOCK_STATES:
        raise SizeLimitError(
            f"gibbs_x {x!r} needs more number states than the limit "
            f"MAX_FOCK_STATES = {MAX_FOCK_STATES}"
        )
    return max(MIN_CUTOFF, math.ceil(states))


@dataclass(frozen=True)
class ModeSpec:
    """One harmonic mode with Gibbs-weighted number states.

    ``cutoff`` is derived, never passed: the number of states summed is
    always ``_auto_cutoff(gibbs_x)``.
    """

    omega: float
    hbar_eff: float
    gibbs_x: float
    cutoff: int = field(init=False)

    def __post_init__(self):
        for name in ("omega", "hbar_eff", "gibbs_x"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise InvalidInputError(f"{name} must be a finite positive number, "
                                        f"got {value!r}")
        object.__setattr__(self, "cutoff", _auto_cutoff(self.gibbs_x))


def _tail_mass(mode: ModeSpec) -> float:
    """Discarded Gibbs weight sum_{n>=cutoff} e^(-x n) = e^(-xC)/(1-e^(-x)).

    Exact geometric tail, the oracle's one certification: the derived
    cutoff keeps it below TAIL_TOL, and :func:`mode_variance_numeric`
    refuses any sum where it does not.
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


def fock_vacuum_expectation(letters, ip) -> complex:
    """<0| L_1 ... L_n |0> for letters ``(kind, index)``, applied on Fock space.

    ``kind`` is ``"a"``, ``"adag"`` or ``"phi"`` = a + adag.  A state maps
    occupations q of the word's annihilated indices to the coefficient of
    prod_k (c_k†)^q_k |0>, on which c_i lowers q_i with weight q_i.  The
    letters act from the right; after m of the n, states with more than
    min(m, n - m) quanta are dropped.  An odd word gives exactly 0.  A word
    is refused once the states it holds pass MAX_REFEREE_STATES.
    """
    letters = list(letters)
    n = len(letters)
    # each annihilated key's position, numbered by first appearance
    annihilated = dict.fromkeys(index for kind, index in letters if kind in ("a", "phi"))
    modes = {index: k for k, index in enumerate(annihilated)}
    # a state is an integer: q_k is its base-(n + 1) digit k, and the top
    # digit is sum(q), so raising or lowering q_k adds or subtracts step[k]
    base, top = n + 1, (n + 1) ** len(modes)
    step = [base**k + top for k in range(len(modes))]
    states = {0: 1.0 + 0.0j}
    for m, (kind, index) in enumerate(reversed(letters), start=1):
        cap = min(m, n - m)
        out: dict = {}
        row = None  # ip[(index, mode)] per mode, read when first needed
        for q, coeff in states.items():
            quanta = q // top
            if kind in ("a", "phi") and quanta <= cap + 1:
                k = modes[index]
                occupation = q // base**k % base
                if occupation:
                    lowered = q - step[k]
                    out[lowered] = out.get(lowered, 0) + occupation * coeff
            if kind in ("adag", "phi") and quanta < cap:
                row = row or [complex(ip[(index, mode)]) for mode in modes]
                for k, weight in enumerate(row):
                    raised = q + step[k]
                    out[raised] = out.get(raised, 0) + weight * coeff
            if len(states) + len(out) > MAX_REFEREE_STATES:
                raise SizeLimitError(f"refusing to apply {n} letters on Fock space: more "
                                     f"than MAX_REFEREE_STATES = {MAX_REFEREE_STATES} states")
        states = out
    return states.get(0, 0.0 + 0.0j)
