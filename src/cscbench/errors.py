"""Exception types shared across the package.

Every one derives from ``CscbenchError`` and keeps a builtin base too
(``ValueError`` or ``RuntimeError``) for callers that catch those.
"""


class CscbenchError(Exception):
    """Base of every error the package raises on purpose."""


class ShapeError(CscbenchError, ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class InvalidThresholdError(CscbenchError, ValueError):
    """A (soft) threshold was negative."""


class ConfigError(CscbenchError, ValueError):
    """A config document names an unknown key or an unknown choice."""


class ConvergenceError(CscbenchError, RuntimeError):
    """An iterative routine ran out of iterations.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DivergenceError(CscbenchError, RuntimeError):
    """A solver produced non-finite intermediates."""


class MaterializationError(CscbenchError, ValueError):
    """A dense materialization would exceed the allowed size."""


class MatrixSizeError(CscbenchError, ValueError):
    """A verification-scale routine was asked for a matrix that is too large."""


class DegenerateDictionaryError(CscbenchError, ValueError):
    """The dictionary has a zero column (or another degeneracy)."""


class BoundInapplicableError(CscbenchError, ValueError):
    """A theoretical bound's precondition is violated; names the offending layer."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class DegenerateClassError(CscbenchError, ValueError):
    """A class has no training samples."""
