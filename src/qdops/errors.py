"""Error taxonomy shared across the engine.

Every domain failure raised on purpose carries a stable `.name` that the
CLI reports verbatim (exit status 3).
"""


class EngineError(Exception):
    name = "EngineError"


class DivisionByZero(EngineError):
    name = "DivisionByZero"


class NotIntegralAtOne(EngineError):
    """Scalar or symbol has a pole at q = 1, so no truncation exists."""

    name = "NotIntegralAtOne"


class OutOfSupport(EngineError):
    """Result leaves the ring (negative exponent where none is allowed)."""

    name = "OutOfSupport"


class DomainMismatch(EngineError):
    name = "DomainMismatch"


class NotDegreeZero(EngineError):
    name = "NotDegreeZero"


class UnknownSuite(EngineError):
    name = "UnknownSuite"


class UnsupportedGenerator(EngineError):
    name = "UnsupportedGenerator"


class ZeroOperator(EngineError):
    name = "ZeroOperator"


class CompatibilityViolation(EngineError):
    name = "CompatibilityViolation"


class GlueFailure(EngineError):
    name = "GlueFailure"


class BudgetExceeded(EngineError):
    """A dense polynomial would pass the kernel's degree limit, or printed
    text its length limit."""

    name = "BudgetExceeded"


class ParseError(EngineError):
    """Raised with the offset of the offending character."""

    name = "ParseError"

    def __init__(self, pos, msg):
        super().__init__(f"at {pos}: {msg}")
        self.pos = pos
        self.msg = msg
