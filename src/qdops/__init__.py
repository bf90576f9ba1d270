"""qdops: exact symbol calculus for q-difference-differential operators.

The engine works with graded operators on k[x], k[y], k[x, x^-1] and
k[x_1..x_n]: each operator is a finite sum of parts (exponent shift,
symbol), a symbol being a Laurent polynomial in u = q^m with polynomial
m-dependence over exact rational-function scalars.  On top of that sit a
braided antiderivative, a constructive simplicity witness, truncations
into Q[t]/(t^n), and a quantized-enveloping-algebra action glued from the
two one-variable pictures.
"""

from .kernel import BACKEND
from .errors import (
    EngineError,
    DivisionByZero,
    NotIntegralAtOne,
    OutOfSupport,
    DomainMismatch,
    NotDegreeZero,
    UnknownSuite,
    UnsupportedGenerator,
    ZeroOperator,
    CompatibilityViolation,
    GlueFailure,
    BudgetExceeded,
    ParseError,
)
from .exactscalar import ExactScalar, TruncatedScalar, q_number, q_factorial

__all__ = [
    "BACKEND",
    "EngineError",
    "DivisionByZero",
    "NotIntegralAtOne",
    "OutOfSupport",
    "DomainMismatch",
    "NotDegreeZero",
    "UnknownSuite",
    "UnsupportedGenerator",
    "ZeroOperator",
    "CompatibilityViolation",
    "GlueFailure",
    "BudgetExceeded",
    "ParseError",
    "ExactScalar",
    "TruncatedScalar",
    "q_number",
    "q_factorial",
]

__version__ = "0.1.0"
