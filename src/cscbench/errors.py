"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class InvalidThresholdError(ValueError):
    """A (soft) threshold was negative."""


class ConfigError(ValueError):
    """A config document names an unknown key or an unknown choice."""


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DivergenceError(RuntimeError):
    """A solver produced non-finite intermediates."""


class MaterializationError(ValueError):
    """A dense materialization would exceed the allowed size."""


class MatrixSizeError(ValueError):
    """A verification-scale routine was asked for a matrix that is too large."""


class DegenerateDictionaryError(ValueError):
    """The dictionary has a zero column (or another degeneracy)."""


class BoundInapplicableError(ValueError):
    """A theoretical bound's precondition is violated; names the offending layer."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class DegenerateClassError(ValueError):
    """A class has no training samples."""
