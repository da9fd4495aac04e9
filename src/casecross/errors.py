"""Exception hierarchy shared across the package."""


class CaseCrossError(Exception):
    """Base class for all analysis errors raised by this package."""


class ConfigurationError(CaseCrossError):
    """Invalid configuration, input file, or geometry (e.g. an empty grid)."""


class DegenerateDataError(CaseCrossError):
    """Sample too degenerate to support the requested construction."""


class EmptyAnalysisError(CaseCrossError):
    """Every matched set was discarded; nothing left to analyze."""


class SeparationError(CaseCrossError):
    """The conditional likelihood is unbounded (perfect separation)."""

    def __init__(self, message: str, block: str | None = None):
        super().__init__(message)
        self.block = block


class ConvergenceError(CaseCrossError):
    """The optimizer failed to reach its convergence criterion."""


class UnsupportedModelError(CaseCrossError):
    """The requested summary is undefined for the fitted model kind."""
