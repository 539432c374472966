"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems (bad input, parse
errors, degenerate modes, refused sizes) exit 2, accuracy problems
(quadrature non-convergence, truncation tails, inconsistent numerics)
exit 3.
"""

from __future__ import annotations


class KGFError(Exception):
    """Base class for all package errors."""


class InvalidInputError(KGFError, ValueError):
    """A parameter or combination of parameters violates a precondition."""


class DomainError(InvalidInputError):
    """An argument lies outside the mathematical domain of an operation."""


class FunctionLookupError(KGFError, KeyError):
    """A test-function name has no configured packet, or no registry index."""

    def __str__(self):
        # KeyError.__str__ repr-quotes the message; keep it readable.
        return str(self.args[0]) if self.args else ""


class MissingInnerProductError(KGFError, KeyError):
    """The inner-product table has no entry for a required pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"inner-product table has no entry for pair {pair}")

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class SizeLimitError(InvalidInputError):
    """A combinatorial size guard was exceeded (e.g. pairing enumeration)."""


class DegenerateModeError(InvalidInputError):
    """A lattice mode has a non-positive spectral coefficient."""

    def __init__(self, mode, coefficient):
        self.mode = mode
        self.coefficient = coefficient
        super().__init__(
            f"spectral coefficient {coefficient} is not positive at lattice "
            f"mode {mode}; pin the zero mode or choose mass > 0"
        )


class AccuracyError(KGFError):
    """A numerical result failed its self-check.

    Carries both estimates so the caller can inspect how far apart they are.
    """

    def __init__(self, message, coarse=None, refined=None):
        self.coarse = coarse
        self.refined = refined
        super().__init__(message)


class NumericConsistencyError(AccuracyError):
    """A quantity that must be real (or otherwise constrained) was not."""


class ExpressionSyntaxError(KGFError, ValueError):
    """Operator-string parse failure; ``position`` is 1-based."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} at offset {position}")
