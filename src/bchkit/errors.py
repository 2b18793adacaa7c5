"""Exception types shared across the package."""

__all__ = [
    "SingularDecomposition",
    "AlgebraMismatch",
    "NonFiniteInput",
    "EmptySequence",
    "NotFactorizable",
    "InvalidFrequency",
]


class SingularDecomposition(ArithmeticError):
    """The requested Gauss (normal-ordered) decomposition does not exist.

    Raised when a composition or disentangling denominator falls inside the
    singular set.  Carries the magnitude of the offending denominator and,
    for sequence operations, the 1-based index of the failing step (plus the
    physical time for evolution runs).
    """

    def __init__(self, message, denominator_abs=None, step=None, time=None):
        super().__init__(message)
        self.denominator_abs = denominator_abs
        self.step = step
        self.time = time


class AlgebraMismatch(ValueError):
    """Group elements from different algebras cannot be composed."""


class NonFiniteInput(ValueError):
    """An input carried a NaN or infinite component."""


class EmptySequence(ValueError):
    """A sequence operation needs at least one element."""


class NotFactorizable(ValueError):
    """The element is not a squeeze-times-rotation product."""


class InvalidFrequency(ValueError):
    """Oscillator frequencies must be positive and finite."""
