"""Toolkit for the quantized Klein-Gordon field's algebraic presentation.

Five cooperating parts:

- :mod:`kgf.kernels`: invariant inner products of Gaussian wave packets by
  mass-shell quadrature (quantum, classical and xi-scaled kernels).
- :mod:`kgf.opalgebra`: words of field and creation/annihilation
  letters, one contraction kernel that evaluates every vacuum expectation
  value, Wick pairings and a small operator-string parser.
- :mod:`kgf.spectra`: closed-form spectral coefficients of five Gaussian
  configuration-space densities and the lambda(xi) closure.
- :mod:`kgf.sampler`: spectral-method Gaussian sampling of lattice field
  configurations with deterministic counter-based randomness.
- :mod:`kgf.fockoracle`: independent Fock-space oracles: the vacuum
  state's representation, which referees the contraction kernel, and a
  truncated number basis for the thermal variance structure.

:mod:`kgf.verify` wires them against each other; :mod:`kgf.cli` exposes
everything as the ``kgf`` command.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name by the submodule that defines it.  Names resolve on
#: first use (PEP 562), so ``import kgf`` loads no submodule and no numpy:
#: ``python -m kgf`` runs this file before ``kgf.__main__`` can set its
#: thread defaults.
_EXPORTS = {
    "errors": (
        "KGFError", "InvalidInputError", "DomainError", "FunctionLookupError",
        "MissingInnerProductError", "SizeLimitError", "DegenerateModeError",
        "AccuracyError", "NumericConsistencyError", "ExpressionSyntaxError",
    ),
    "kernels": (
        "PhysicalConstants", "WavePacket", "KernelVariant", "QuadratureSpec",
        "KernelSpec", "fourier_transform", "inner_product",
        "inner_product_with_diagnostics", "positivity_check",
    ),
    "opalgebra": (
        "FunctionRegistry", "InnerProductTable", "OperatorExpression",
        "vacuum_expectation", "wick_vev", "enumerate_pairings",
        "parse_expression", "parse_terms",
    ),
    "spectra": (
        "Ensemble", "SpectralDensity", "spectral_coefficient", "lambda_of_xi",
        "CrossoverRow", "crossover_report",
    ),
    "sampler": (
        "LatticeSpec", "FieldConfiguration", "SpectrumAccumulator",
        "SpectrumEstimate", "sample_array", "power_spectrum",
        "expected_power", "smear", "smear_variance", "hamiltonian_classical",
    ),
    "fockoracle": (
        "ModeSpec", "mode_variance_numeric",
        "mode_variance_closed", "DensityVarianceCheck", "verify_density_variance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
