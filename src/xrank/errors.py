"""Domain exceptions shared across the package.

Each error carries a stable ``code`` string; the CLI maps a raised error
to that code with exit status 2.
"""


class XrankError(Exception):
    """Base class for domain errors."""

    code = "DomainError"


class DivisionByZero(XrankError, ZeroDivisionError):
    code = "DivisionByZero"


class DimensionMismatch(XrankError):
    code = "DimensionMismatch"


class FieldNotFinite(XrankError):
    """A finite field was required (enumeration, oracle search)."""

    code = "FieldNotFinite"


class FieldTooSmall(XrankError):
    """The prime field has too few points for a required distinct choice."""

    code = "FieldTooSmall"


class ModulusTooLarge(XrankError):
    """The prime is too large for a kernel's int64 residue products."""

    code = "ModulusTooLarge"


class ZeroFactor(XrankError):
    """A projective factor vector (or tensor) is identically zero."""

    code = "ZeroFactor"


class SpaceMismatch(XrankError):
    code = "SpaceMismatch"


class EmptySet(XrankError):
    code = "EmptySet"


class UnsupportedDegree(XrankError):
    """Operation requires degree-one (Segre) factors."""

    code = "UnsupportedDegree"


class NotContained(XrankError):
    """Tensor does not lie in the stated envelope/subspace span."""

    code = "NotContained"


class NotIrredundantInput(XrankError):
    code = "NotIrredundantInput"


class NoEscapingFiber(XrankError):
    """No (point, factor) pair has its fiber span escaping the input span.

    Cannot happen for a genuinely minimal input decomposition; it flags a
    broken precondition.
    """

    code = "NoEscapingFiber"


class NotContainedInY(XrankError):
    code = "NotContainedInY"


class YEqualsW(XrankError):
    code = "YEqualsW"


class NotConcise(XrankError):
    code = "NotConcise"


class BadM(XrankError):
    code = "BadM"


class NotVeronese(XrankError):
    code = "NotVeronese"


class TargetTooSmall(XrankError):
    code = "TargetTooSmall"


class BudgetExceeded(XrankError):
    """Search-space size exceeds the configured combination budget."""

    code = "BudgetExceeded"


class NoConciseWitness(XrankError):
    code = "NoConciseWitness"


class InvalidInput(XrankError):
    """Structurally valid JSON that violates a documented value contract."""

    code = "InvalidInput"


class DegenerateSpace(XrankError):
    """Space has no positive-dimensional factor where one is required."""

    code = "DegenerateSpace"


class TargetNotSpanned(XrankError):
    """Over a small field the variety points may not span the ambient space;
    a target outside their span has no rank."""

    code = "TargetNotSpanned"


class MinimalityNotCertified(XrankError):
    """Oracle certification of input minimality was requested and failed."""

    code = "MinimalityNotCertified"
