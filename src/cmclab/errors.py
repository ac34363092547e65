"""Exception and warning types shared across the package."""


class CmcLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CmcLabError, ValueError):
    """Invalid parameter or configuration value."""


class GridMismatchError(CmcLabError, ValueError):
    """Fields living on different grids were combined."""


class ModelError(CmcLabError, ValueError):
    """Invalid metric-model or initial-data construction."""


class DomainError(CmcLabError, ValueError):
    """Evaluation point inside a model's exclusion radius, or where its metric
    is not positive definite (a leading minor of ``g`` is ``<= 0``)."""


class SolverError(CmcLabError, RuntimeError):
    """Newton iteration or linear solve failed."""


class DivergenceError(SolverError):
    """Residual increased for several consecutive Newton steps."""


class SolvabilityError(SolverError):
    """Elliptic solve with a kernel component in the right-hand side."""


class ResolutionWarning(UserWarning):
    """Band limit too low to represent the requested operation accurately."""
