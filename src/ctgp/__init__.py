"""Continuous-time batch state estimation on SE(3) with motion inputs.

The motion prior is a Gaussian process driven by exogenous body-velocity
and acceleration inputs plus a white-noise-perturbed bias, so odometry or
actuation commands shape the prior mean while the dispersion stays tuned
to the unmodeled part of the motion. Batch MAP estimation runs on a block
tridiagonal Gauss-Newton solver, and the posterior can be queried at any
time through closed-form interpolation.

Two applications are built in: planar mobile-robot localization from
range measurements with wheel odometry as the input stream, and
quasi-static shape estimation of a tendon-driven rod, where arclength
plays the role of time and tendon tensions enter as acceleration inputs.
"""

from .continuum import (RodModel, TendonRoute, estimate_shape,
                        tensions_to_inputs)
from .errors import (CoverageError, DegenerateInputError, DomainError,
                     EstimationError, GaugeFreedomError,
                     HyperparameterError, IllConditionedRotationError,
                     IntervalTooLongError, ScenarioError,
                     SingularGeometryError, WiringError)
from .experiment import (ContinuumMetrics, ExperimentResult, Metrics,
                         reproduce_fig3, run_continuum, run_experiment,
                         sweep, write_metrics_csv, write_trajectory_csv)
from .factors import (AnchorFactor, InterpolatedFactor, PlanarLockFactor,
                      PoseFactor, PositionFactor, RangeFactor, VelocityFactor)
from .inputs import InputProfile, InputSegment, from_samples
from .interpolation import QueryResult, Trajectory
from .liegroup import Pose, exp_map, log_map
from .prior import IntervalBlocks, PriorHyper, StateNode
from .scenario import (ContinuumScenario, MobileScenario, bundled_scenario,
                       load_scenario, parse_scenario)
from .simulate import MobileTruth, filter_ranges, simulate_mobile, simulate_rod
from .solver import Problem, Solution, solve

__version__ = "0.1.0"

__all__ = [
    "AnchorFactor", "ContinuumMetrics", "ContinuumScenario", "CoverageError",
    "DegenerateInputError", "DomainError", "EstimationError",
    "ExperimentResult", "GaugeFreedomError", "HyperparameterError",
    "IllConditionedRotationError", "InputProfile", "InputSegment",
    "InterpolatedFactor", "IntervalBlocks", "IntervalTooLongError",
    "Metrics", "MobileScenario", "MobileTruth", "PlanarLockFactor", "Pose",
    "PoseFactor", "PositionFactor", "PriorHyper", "Problem",
    "QueryResult", "RangeFactor", "RodModel", "ScenarioError",
    "SingularGeometryError", "Solution", "StateNode",
    "TendonRoute", "Trajectory", "VelocityFactor", "WiringError",
    "bundled_scenario", "estimate_shape", "exp_map", "filter_ranges",
    "from_samples", "load_scenario", "log_map", "parse_scenario",
    "reproduce_fig3", "run_continuum", "run_experiment", "simulate_mobile",
    "simulate_rod", "solve", "sweep", "tensions_to_inputs",
    "write_metrics_csv", "write_trajectory_csv",
]
