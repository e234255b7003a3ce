"""Exception types shared across the package."""


class PenflowError(Exception):
    """Base class for all package errors."""


class GeometryError(PenflowError):
    """Invalid geometric input (obstacle touching the outer boundary, etc.)."""


class GenerationError(PenflowError):
    """The mesh generator failed to produce a valid triangulation."""


class MeshInvariantError(PenflowError):
    """A mesh violates a structural invariant."""


class EmptyRegionError(PenflowError):
    """An operation was asked to act on an empty triangle subset."""


class UnknownLabelError(KeyError, PenflowError):
    """A boundary label is not present in the mesh."""

    def __str__(self):
        # KeyError would print the repr of the message
        return PenflowError.__str__(self)


class ConfigurationError(PenflowError):
    """Invalid physics, regularization, or run configuration."""


class DegenerateInputError(PenflowError):
    """Input data is degenerate for the requested computation."""


class SolverError(PenflowError):
    """A linear or nonlinear solve failed."""


class NonconvergenceError(SolverError):
    """Newton iteration failed to converge; carries the iteration report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
