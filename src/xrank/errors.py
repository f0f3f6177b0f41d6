"""Domain exceptions shared across the package.

Each error carries a stable ``code`` string, its class name ("DomainError"
for the base class); the CLI maps a raised error to that code with exit
status 2.
"""


class XrankError(Exception):
    """Base class for domain errors."""

    code = "DomainError"

    def __init_subclass__(cls):
        cls.code = cls.__name__


class DivisionByZero(XrankError, ZeroDivisionError):
    pass


class DimensionMismatch(XrankError):
    pass


class FieldNotFinite(XrankError):
    """A finite field was required (enumeration, oracle search)."""


class FieldTooSmall(XrankError):
    """The prime field has too few points for a required distinct choice."""


class ModulusTooLarge(XrankError):
    """The prime is too large for a kernel's int64 residue products."""


class ZeroFactor(XrankError):
    """A projective factor vector (or tensor) is identically zero."""


class SpaceMismatch(XrankError):
    pass


class EmptySet(XrankError):
    pass


class UnsupportedDegree(XrankError):
    """Operation requires degree-one (Segre) factors."""


class NotIrredundantInput(XrankError):
    pass


class NoEscapingFiber(XrankError):
    """No (point, factor) pair has its fiber span escaping the input span.

    Cannot happen for a genuinely minimal input decomposition; it flags a
    broken precondition.
    """


class NotContainedInY(XrankError):
    pass


class YEqualsW(XrankError):
    pass


class NotConcise(XrankError):
    pass


class BadM(XrankError):
    pass


class NotVeronese(XrankError):
    pass


class TargetTooSmall(XrankError):
    pass


class BudgetExceeded(XrankError):
    """Search-space size exceeds the configured combination budget."""


class NoConciseWitness(XrankError):
    pass


class InvalidInput(XrankError):
    """Structurally valid JSON that violates a documented value contract."""


class DegenerateSpace(XrankError):
    """Space has no positive-dimensional factor where one is required."""


class TargetNotSpanned(XrankError):
    """Over a small field the variety points may not span the ambient space;
    a target outside their span has no rank."""


class MinimalityNotCertified(XrankError):
    """Oracle certification of input minimality was requested and failed."""
