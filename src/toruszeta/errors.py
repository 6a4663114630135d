"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain on which the operation is defined."""


class PoleError(DomainError):
    """The requested point is a pole (or sits inside the pole-exclusion tolerance)."""


class NormalizationError(ValueError):
    """An integer matrix is not unimodular or not in the normalized orientation."""


class ZeroModeError(DomainError):
    """The operator has a (numerically) vanishing ground mode, so log det is undefined."""


class SpectrumError(DomainError):
    """The operator spectrum violates the positivity assumption."""


class NonFiniteError(ArithmeticError):
    """A NaN or infinity was produced where a finite value is guaranteed."""


class TruncationWarning(RuntimeWarning):
    """A series was cut at the hard index cap before the tail bound was met."""
