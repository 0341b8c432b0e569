"""Exception types shared across the package."""


class AttnOpsError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(AttnOpsError, ValueError):
    """Operand shapes do not conform."""


class NotSquare(DimensionMismatch):
    """A square matrix was required."""


class NonFiniteInput(AttnOpsError, ValueError):
    """An operand (or a result) contains NaN or Inf.

    ``stage`` names the result or normalizer that overflowed; it stays ``None``
    when an input operand was rejected.
    """

    def __init__(self, message, *, stage=None):
        super().__init__(message)
        self.stage = stage


class ComplexNotSupported(AttnOpsError, TypeError):
    """The operation is defined for real scalars only."""


class DegenerateNormalizer(AttnOpsError, ArithmeticError):
    """A trace, diagonal, row-sum or kernel row-sum normalizer fell below 1e-12 * order.

    ``name`` says which normalizer, ``index`` which entry of a per-row one
    (``None`` for a scalar trace), and ``value`` and ``threshold`` are the two
    numbers compared.  Fields the raise site does not know stay ``None``.
    """

    def __init__(self, message, *, value=None, threshold=None, name=None, index=None):
        super().__init__(message)
        self.value, self.threshold, self.name, self.index = value, threshold, name, index


class SingularDenominator(AttnOpsError, ArithmeticError):
    """Only ``expm_pade`` raises this: its rational-approximant denominator is singular.

    ``condition`` is its 1-norm condition estimate and ``limit`` the bound it exceeded.
    """

    def __init__(self, message, *, condition=None, limit=None):
        super().__init__(message)
        self.condition, self.limit = condition, limit


class UnknownVariant(AttnOpsError, KeyError):
    """Variant id is not registered: ``variant`` is the id asked for, ``known`` the ids there."""

    def __init__(self, message, *, variant, known):
        super().__init__(message)
        self.variant, self.known = str(variant), tuple(known)


class InvalidOption(AttnOpsError, ValueError):
    """A registry id does not take this option value: a bad ``side``, or ``hadamard`` on an
    id with no elementwise flavor.  ``mechanism`` names the id and ``option`` the option;
    ``accepted`` holds the values it takes, or for ``UnknownOption`` the names the id takes.
    """

    def __init__(self, message, *, mechanism, option, accepted):
        super().__init__(message)
        self.mechanism, self.option, self.accepted = mechanism, option, accepted


class UnknownOption(InvalidOption, TypeError):
    """A registry id takes no option of this name; a TypeError, as for a bad keyword."""


class ShapeTooLarge(AttnOpsError, ValueError):
    """Inputs exceed the size bound of a brute-force check."""
