"""Exception types shared across the package.

Solver failures carry enough state (residual histories, node locations)
to diagnose a run from the exception alone.
"""
from __future__ import annotations


class AmceError(Exception):
    """Base class for all package errors."""


class InvalidDomainError(AmceError):
    """Domain parameters do not describe a bounded uniformly convex region."""


class EmptyGridError(AmceError):
    """No lattice node falls strictly inside the domain."""


class IncompleteDataError(AmceError):
    """Data an operation needs is missing: field dump rows, or local-fit points."""


class InvalidProblemError(AmceError):
    """Problem data violates a stated hypothesis (theta range, signs, ...)."""


class NonConvergenceError(AmceError):
    """An iteration exhausted its budget without meeting its tolerance."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConvexityFailureError(AmceError):
    """The discrete Hessian lost positive definiteness and damping cannot repair it."""


class DegenerateOperatorError(AmceError):
    """The frozen coefficient matrix is singular or indefinite at a node."""

    def __init__(self, message: str, node: int | None = None, point=None):
        super().__init__(message)
        self.node = node
        self.point = point


class TooCloseToBoundaryError(AmceError):
    """A section center sits within one cell of the boundary."""


class DegenerateSectionError(AmceError):
    """A section has too few nodes or a degenerate hull for the requested fit."""


class ConvexityViolationError(AmceError):
    """Sampled data is inconsistent with convexity beyond discretization error."""


class NonConvexProfileError(AmceError):
    """A manufactured radial profile is not uniformly convex on its domain."""


class InvalidShearError(AmceError):
    """A shear matrix for a manufactured solution is not unimodular."""


class ConfigError(AmceError):
    """A run configuration failed validation."""


#: A run that failed to converge or whose operator degenerated mid-solve
#: (exit 2); every other package error is invalid input (exit 3).
SOLVE_FAILURES = (NonConvergenceError, ConvexityFailureError, DegenerateOperatorError)
