"""Exception types shared across the package."""


class TempDerivError(Exception):
    """Base class for package-specific failures."""


class DomainError(TempDerivError, ValueError):
    """Argument outside the mathematical domain (branch cut, inadmissible parameter)."""


class NoBracketError(TempDerivError, RuntimeError):
    """Root finding found no sign change on the admissible interval."""


class IngestError(TempDerivError, ValueError):
    """Input data could not be parsed or repaired."""


class CalibrationError(TempDerivError, RuntimeError):
    """Parameter estimation failed (no mean reversion, optimizer non-convergence, ...)."""
