"""Quasi-static continuum-robot shape estimation.

Arclength stands in for time and strain for body velocity, so the motion
prior, factors, solver, and interpolation apply unchanged. Tendon tensions
enter as distributed moments on the strain-derivative channel: each tendon
applies a point moment at its termination (tension times offset radius,
perpendicular to the routing plane), spread as a narrow triangular bump so
it stays within the piecewise-linear input representation, then divided by
the backbone stiffness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import factors as _factors
from . import solver as _solver
from .errors import CoverageError, DomainError, HyperparameterError
from .inputs import InputProfile, from_samples
from .interpolation import Trajectory
from .liegroup import Pose
from .prior import NodeArrays, PriorHyper, precompute_intervals

# strain of an undeformed backbone: unit tangent along the body z axis
STRAIGHT_STRAIN = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

_GRID_TOL = 1e-12


@dataclass(frozen=True)
class RodModel:
    """Backbone geometry and stiffness.

    stiffness is the diagonal of the 6x6 matrix mapping strain deviations to
    loads: shear-x, shear-y, stretch entries in N, bending-x, bending-y,
    torsion entries in N m^2. disk_arclengths are ground-truth comparison
    points and play no role in estimation.
    """

    length: float
    stiffness: np.ndarray
    disk_arclengths: tuple = ()

    def __post_init__(self):
        if not np.isfinite(self.length) or self.length <= 0:
            raise HyperparameterError("rod length must be positive")
        k = np.asarray(self.stiffness, dtype=float)
        if k.shape == (6, 6):
            if np.any(k != np.diag(np.diag(k))):
                raise HyperparameterError("rod stiffness must be diagonal")
            k = np.diag(k)
        if k.shape != (6,) or not np.all(np.isfinite(k)) or np.any(k <= 0):
            raise HyperparameterError("rod stiffness needs six positive diagonal entries")
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "disk_arclengths", tuple(float(s) for s in self.disk_arclengths))
        if any(s < 0 or s > self.length for s in self.disk_arclengths):
            raise DomainError("disk arclengths must lie within [0, length]")


@dataclass(frozen=True)
class TendonRoute:
    """One tendon: routed parallel to the backbone, pulled with fixed tension.

    azimuth orients the routing plane around the backbone; the tendon runs at
    offset_radius from the axis and terminates at termination_arclength.
    """

    offset_radius: float
    azimuth: float
    termination_arclength: float
    tension: float

    def __post_init__(self):
        if not np.isfinite(self.offset_radius) or self.offset_radius <= 0:
            raise HyperparameterError("tendon offset radius must be positive")
        if not np.isfinite(self.tension) or self.tension < 0:
            raise HyperparameterError("tendon tension must be nonnegative")
        if not np.isfinite(self.termination_arclength):
            raise DomainError("tendon termination must be finite")


def point_moment(tendon: TendonRoute):
    """Load twist of the tendon's point moment: tension times offset radius,
    directed along z cross the offset direction (pure moment, zero force)."""
    offset_dir = np.array([np.cos(tendon.azimuth), np.sin(tendon.azimuth), 0.0])
    moment = tendon.tension * tendon.offset_radius * np.cross([0.0, 0.0, 1.0], offset_dir)
    return np.concatenate([np.zeros(3), moment])


def _check_node_arclengths(rod: RodModel, node_arclengths):
    s = np.asarray(node_arclengths, dtype=float)
    if s.ndim != 1 or len(s) < 2 or np.any(np.diff(s) <= 0):
        raise CoverageError("node arclengths must be strictly increasing, at least two")
    if abs(s[0]) > 1e-9 or abs(s[-1] - rod.length) > 1e-9:
        raise CoverageError("node arclengths must cover [0, rod length]")
    return s


def tensions_to_inputs(rod: RodModel, tendons, node_arclengths):
    """The input profile along the rod, over the node arclengths, from the tendon tensions.

    Each tendon's point moment becomes a triangular bump one node spacing
    wide (clipped to the rod and renormalized so the integrated moment is
    exact), summed across tendons, divided by the stiffness, and placed on
    the strain-derivative channel. The profile has a knot at every node
    arclength and at every bump's ends and peak. Zero tensions give one zero
    segment over the rod.
    """
    s = _check_node_arclengths(rod, node_arclengths)
    if any(t.termination_arclength < 0 or t.termination_arclength > rod.length
           for t in tendons):
        raise DomainError("tendon termination lies outside the rod")

    if all(t.tension == 0 for t in tendons):
        return InputProfile.zero(s[0], s[-1])

    bumps = []
    knots = set(s.tolist())
    for t in tendons:
        p = t.termination_arclength
        i = min(np.searchsorted(s, p, side="right") - 1, len(s) - 2)
        width = s[i + 1] - s[i]
        lo = max(0.0, p - 0.5 * width)
        hi = min(rod.length, p + 0.5 * width)
        peak = point_moment(t) * 2.0 / (hi - lo)
        bumps.append((lo, p, hi, peak))
        knots.update((lo, p, hi))

    grid = np.array(sorted(knots))
    grid = grid[np.concatenate([[True], np.diff(grid) > _GRID_TOL])]
    load = np.zeros((len(grid), 6))
    for lo, p, hi, peak in bumps:
        w = np.zeros(len(grid))
        if p - lo > _GRID_TOL:
            m = (grid >= lo - 1e-9) & (grid <= p + 1e-9)
            w[m] = (grid[m] - lo) / (p - lo)
        if hi - p > _GRID_TOL:
            m = (grid >= p - 1e-9) & (grid <= hi + 1e-9)
            w[m] = (hi - grid[m]) / (hi - p)
        load += np.outer(np.clip(w, 0.0, 1.0), peak)
    accel = load / rod.stiffness

    return from_samples(grid, np.zeros_like(accel), accel)


def straight_pose(s: float) -> Pose:
    """Pose at arclength s of the undeformed backbone: exp_map(s * STRAIGHT_STRAIN)."""
    return Pose(np.eye(3), s * STRAIGHT_STRAIN[:3])


# loose base-strain prior on the same scale as the shape prior's diffusion;
# it removes the gauge deficiency of tip-position-only sensing
BASE_STRAIN_COVARIANCE = np.diag([1e-2] * 3 + [1e3] * 3)


def estimate_shape(rod: RodModel, tendons, measurement_factors,
                   hyper: PriorHyper, node_count: int):
    """MAP shape estimate from tendon tensions plus the given measurements.

    Nodes start straight (straight_pose, STRAIGHT_STRAIN) at uniform
    arclengths, with the base pose anchored at the identity (the rod is
    expressed in its own base frame) and a loose prior on the base strain.
    Returns the Solution and a Trajectory for dense queries along the shape.
    """
    if node_count < 2:
        raise HyperparameterError("need at least two shape nodes")
    s_nodes = np.linspace(0.0, rod.length, node_count)
    blocks_list = precompute_intervals(tensions_to_inputs(rod, tendons, s_nodes), s_nodes, hyper)
    nodes = NodeArrays(np.arange(node_count), s_nodes, np.tile(np.eye(3), (node_count, 1, 1)),
                       np.outer(s_nodes, STRAIGHT_STRAIN[:3]),
                       np.tile(STRAIGHT_STRAIN, (node_count, 1)))

    anchor = _factors.AnchorFactor(0, Pose.identity(), STRAIGHT_STRAIN.copy(),
                                   1e-12 * np.eye(6), BASE_STRAIN_COVARIANCE)
    problem = _solver.Problem(nodes, blocks_list,
                              [anchor] + list(measurement_factors), gauge="none")
    solution = _solver.solve(problem)
    trajectory = Trajectory(solution.nodes, blocks_list,
                            covariances=solution.node_covariances,
                            cross_covariances=solution.cross_covariances)
    return solution, trajectory
