"""Toolkit for the quantized Klein-Gordon field's algebraic presentation.

Five cooperating parts:

- :mod:`kgf.kernels`: invariant inner products of Gaussian wave packets by
  mass-shell quadrature (quantum, classical and xi-scaled kernels).
- :mod:`kgf.opalgebra`: symbolic creation/annihilation words, one
  contraction kernel that evaluates every vacuum expectation value,
  commutator rewriting to normal order as its independent referee, Wick
  pairings and a small operator-string parser.
- :mod:`kgf.spectra`: closed-form spectral coefficients of five Gaussian
  configuration-space densities and the lambda(xi) closure.
- :mod:`kgf.sampler`: spectral-method Gaussian sampling of lattice field
  configurations with deterministic counter-based randomness.
- :mod:`kgf.fockoracle`: independent truncated number-basis oracle for
  the thermal variance structure.

:mod:`kgf.verify` wires them against each other; :mod:`kgf.cli` exposes
everything as the ``kgf`` command.
"""

from .errors import (
    AccuracyError,
    DegenerateModeError,
    DomainError,
    ExpressionSyntaxError,
    FunctionLookupError,
    InvalidInputError,
    KGFError,
    MissingInnerProductError,
    NumericConsistencyError,
    SizeLimitError,
)
from .kernels import (
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
from .opalgebra import (
    FunctionRegistry,
    InnerProductTable,
    LetterKind,
    OperatorExpression,
    enumerate_pairings,
    excited_state_norm,
    field_operator,
    normal_order,
    parse_expression,
    parse_terms,
    vacuum_expectation,
    wick_vev,
)
from .spectra import (
    CrossoverRow,
    Ensemble,
    SpectralDensity,
    crossover_report,
    lambda_of_xi,
    spectral_coefficient,
)
from .sampler import (
    FieldConfiguration,
    LatticeSpec,
    SpectrumAccumulator,
    SpectrumEstimate,
    density_exponent,
    expected_power,
    hamiltonian_classical,
    hamiltonian_quantum,
    power_spectrum,
    sample_array,
    smear,
    smear_variance,
)
from .fockoracle import (
    DensityVarianceCheck,
    ModeSpec,
    bose_occupancy,
    mode_variance_closed,
    mode_variance_numeric,
    verify_density_variance,
)

__version__ = "0.1.0"

__all__ = [
    "KGFError", "InvalidInputError", "DomainError", "FunctionLookupError",
    "MissingInnerProductError", "SizeLimitError", "DegenerateModeError",
    "AccuracyError", "NumericConsistencyError", "ExpressionSyntaxError",
    "PhysicalConstants", "WavePacket", "KernelVariant", "QuadratureSpec",
    "KernelSpec", "fourier_transform", "inner_product",
    "inner_product_with_diagnostics", "positivity_check",
    "LetterKind", "FunctionRegistry", "InnerProductTable",
    "OperatorExpression", "field_operator", "normal_order",
    "vacuum_expectation", "wick_vev", "excited_state_norm",
    "enumerate_pairings", "parse_expression", "parse_terms",
    "Ensemble", "SpectralDensity", "spectral_coefficient", "lambda_of_xi",
    "CrossoverRow", "crossover_report",
    "LatticeSpec", "FieldConfiguration", "SpectrumAccumulator",
    "SpectrumEstimate", "sample_array", "power_spectrum",
    "expected_power", "smear", "smear_variance", "hamiltonian_classical",
    "hamiltonian_quantum", "density_exponent",
    "ModeSpec", "bose_occupancy", "mode_variance_numeric",
    "mode_variance_closed", "DensityVarianceCheck", "verify_density_variance",
    "__version__",
]
