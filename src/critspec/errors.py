"""Exception types shared across the package."""

__all__ = ["NumericError", "NonConvergenceError", "ParseError"]


class NumericError(RuntimeError):
    """A floating-point computation produced an untrustworthy result."""


class NonConvergenceError(NumericError):
    """An iterative solver stopped short of its residual target.

    ``best_residual`` carries the smallest residual reached, so callers
    can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class ParseError(ValueError):
    """Malformed input text; ``token`` is the offending fragment."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token
