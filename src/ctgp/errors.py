"""Exception types raised by the estimation library, and the numeric guard that raises them."""

import numpy as np


class EstimationError(Exception):
    """Base class for all library-specific errors."""


class IllConditionedRotationError(EstimationError):
    """Rotation too close to a singularity of the requested map (pi for log, 2*pi for inverse Jacobians).

    entry is the flat index of the first batch entry that raised it, or None.
    """

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class IntervalTooLongError(EstimationError):
    """Local pose coordinates left the valid chart (angular norm reached pi) within one node interval."""


class DomainError(EstimationError):
    """Query time or arclength outside a profile, interval, trajectory or simulated run."""


class CoverageError(EstimationError):
    """Input profiles do not cover every node interval."""


class DegenerateInputError(EstimationError):
    """Malformed input samples or segments (non-increasing times, zero duration, NaNs)."""


class HyperparameterError(EstimationError):
    """Power-spectral-density matrix or measurement covariance is not symmetric positive definite."""


class WiringError(EstimationError):
    """Factor references a node index or time that does not exist in the problem."""


class GaugeFreedomError(EstimationError):
    """Normal equations are singular; the problem has unconstrained degrees of freedom."""


class SingularGeometryError(EstimationError):
    """Measurement geometry is degenerate (for example a range factor evaluated at the landmark)."""


class ScenarioError(EstimationError):
    """Scenario file is missing, malformed, or fails schema validation."""


def as_floats(value, what, error):
    """value as a new float array, else error naming what and the value.

    A string, a ragged list, a mapping or an integer too large for a float
    is not one.
    """
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be numeric, got {value!r}") from None
