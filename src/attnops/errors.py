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
    """A trace / diagonal / row-sum normalizer fell below its threshold.

    ``name`` says which normalizer, ``index`` which entry of a per-row one
    (``None`` for a scalar trace), and ``value`` and ``threshold`` are the two
    numbers compared.  Fields the raise site does not know stay ``None``.
    """

    def __init__(self, message, *, value=None, threshold=None, name=None, index=None):
        super().__init__(message)
        self.value, self.threshold, self.name, self.index = value, threshold, name, index


class DegenerateDenominator(AttnOpsError, ArithmeticError):
    """A kernel-attention row denominator fell below its threshold.

    ``value`` is the smallest denominator, at ``row``, and ``threshold`` the bound.
    """

    def __init__(self, message, *, value=None, threshold=None, row=None):
        super().__init__(message)
        self.value, self.threshold, self.row = value, threshold, row


class SingularDenominator(AttnOpsError, ArithmeticError):
    """Only ``expm_pade`` raises this: its rational-approximant denominator is singular.

    ``condition`` is its 1-norm condition estimate and ``limit`` the bound it exceeded.
    """

    def __init__(self, message, *, condition=None, limit=None):
        super().__init__(message)
        self.condition, self.limit = condition, limit


class DvMismatch(AttnOpsError, ValueError):
    """The value width must equal the model width for this operation."""


class UnknownVariant(AttnOpsError, KeyError):
    """Variant id is not registered."""


class ShapeTooLarge(AttnOpsError, ValueError):
    """Inputs exceed the size bound of a brute-force check."""
