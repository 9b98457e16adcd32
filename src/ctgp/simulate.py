"""Ground-truth generation for the simulated experiments.

The mobile simulator integrates the pose kinematics driven by the scripted
body velocity, optionally perturbed by an initial-state draw and a bias
random walk matching the estimator's prior; its truth holds stacked poses.

The continuum simulator integrates the same kinematics over arclength, with
the strain obtained exactly from the piecewise-linear actuation inputs plus
any disturbance load withheld from the estimator.

One integrator, integrate_poses, serves both truths and the estimator's
dead-reckoned start: a fourth-order Runge-Kutta scheme on the homogeneous
transform, batched across grid intervals (input ticks, or arclength grid
steps), whose independent transitions are chained afterwards. The truths
integrate at a fine fixed step, the dead reckoning at one step per tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuum import STRAIGHT_STRAIN, tensions_to_inputs
from .errors import DegenerateInputError, DomainError
from .liegroup import Pose, exp_map, so3_project, wedge
from .scenario import Disturbance, MobileScenario

# sub-tick resolution of the simulated bias walk; fine enough that the
# discrete walk is indistinguishable from the continuous process at the
# tick scale
_WALK_SUBSTEPS = 20


@dataclass(frozen=True)
class RangeSample:
    time: float
    landmark_index: int
    value: float


@dataclass(frozen=True)
class MobileTruth:
    """One simulated run: truth at the input ticks plus the measurement log.

    rot (n, 3, 3) and trans (n, 3) are the poses, as Pose rows in poses.
    input_velocities holds the estimator-visible velocity stream (the
    scripted commands); biases holds the true deviation from that stream,
    zero unless the scenario samples initial errors or process noise.
    """

    scenario: MobileScenario
    times: np.ndarray
    rot: np.ndarray
    trans: np.ndarray
    biases: np.ndarray
    input_velocities: np.ndarray
    ranges: tuple[RangeSample, ...]

    @cached_property
    def poses(self) -> tuple[Pose, ...]:
        return tuple(map(Pose, self.rot, self.trans))

    def pose_at_tick(self, time) -> Pose:
        idx = int(np.argmin(np.abs(self.times - time)))
        if not abs(self.times[idx] - time) <= 1e-9:
            raise DomainError(f"no simulated tick at t = {time} s")
        return self.poses[idx]


def interpolate_ticks(times, values):
    """The piecewise-linear stream through values (n, 6) at times, as a function of time."""
    columns = np.ascontiguousarray(np.transpose(values))
    return lambda t: np.stack([np.interp(t, times, c) for c in columns], axis=-1)


def integrate_poses(velocity, grid, step, start: Pose, rows=None):
    """Stacked (rotations, translations) at grid[rows] (all by default) of T' = velocity(t)^ T.

    velocity maps times to (n, 6) twists; start is the pose at grid[0]. Every
    interval takes the longest one's RK4 step count, so none steps coarser
    than step. Only the rotations returned are projected onto SO(3).
    """
    grid = np.asarray(grid, dtype=float)
    t0s, dt = grid[:-1], np.diff(grid)
    n_sub = max(1, int(round(float(np.max(dt)) / step)))
    h = dt / n_sub
    # whole-matrix step sizes: same-shape products beat broadcasts from (n, 1, 1)
    hm = h[:, None, None] * np.ones((4, 4))
    half, sixth = 0.5 * hm, hm / 6.0
    phi = np.broadcast_to(np.eye(4), (len(t0s), 4, 4)).copy()
    a_start = wedge(velocity(t0s))
    for j in range(n_sub):
        ta = t0s + j * h
        a_mid = wedge(velocity(ta + 0.5 * h))
        a_end = wedge(velocity(ta + h))
        k1 = a_start @ phi
        k2 = a_mid @ (phi + half * k1)
        k3 = a_mid @ (phi + half * k2)
        k4 = a_end @ (phi + hm * k3)
        phi = phi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_start = a_end
    mats = [start.matrix()]
    for p in phi:
        mats.append(p @ mats[-1])
    mats = np.array(mats if rows is None else [mats[i] for i in rows])
    return so3_project(mats[:, :3, :3]), mats[:, :3, 3]


def simulate_mobile(scenario: MobileScenario, *, seed=None) -> MobileTruth:
    """Simulate one run; deterministic for a fixed seed."""
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    times = scenario.tick_times()
    n_ticks = len(times) - 1
    dt = scenario.tick
    commanded = scenario.sample_script(times)

    walk_mask = np.ones(6)
    if scenario.planar:
        # keep the sampled deviations in the plane the estimator locks
        walk_mask = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    pose_err = rng.standard_normal(6) * scenario.anchor_pose_sigma
    bias_err = rng.standard_normal(6) * scenario.anchor_bias_sigma * walk_mask
    start = exp_map(pose_err) @ scenario.start

    h_walk = dt / _WALK_SUBSTEPS
    n_walk = n_ticks * _WALK_SUBSTEPS
    if scenario.process_noise:
        steps = rng.standard_normal((n_walk, 6))
        steps *= np.sqrt(scenario.qc_inputs * h_walk) * walk_mask
    else:
        steps = np.zeros((n_walk, 6))
    walk = np.concatenate([np.zeros((1, 6)), np.cumsum(steps, axis=0)])

    def true_bias(t):
        idx = np.clip((t / h_walk + 1e-9).astype(int), 0, n_walk)
        return bias_err + walk[idx]

    command = interpolate_ticks(times, commanded)
    rot, trans = integrate_poses(lambda t: command(t) + true_bias(t), times,
                                 scenario.sim_step, start)

    stride = int(round(scenario.range_schedule.interval / dt))
    meas_idx = np.arange(0, n_ticks + 1, stride)
    sigma = np.sqrt(scenario.range_schedule.variance)
    noise = rng.standard_normal((len(meas_idx), len(scenario.landmarks))) * sigma
    ranges = []
    for row, k in enumerate(meas_idx):
        p = trans[k]
        for lm_idx, lm in enumerate(scenario.landmarks):
            dist = float(np.linalg.norm(lm - p))
            if (scenario.range_schedule.max_range is not None
                    and dist > scenario.range_schedule.max_range):
                continue
            ranges.append(RangeSample(
                float(times[k]), lm_idx,
                dist * scenario.range_schedule.scale + float(noise[row, lm_idx])))

    return MobileTruth(scenario, times, rot, trans, true_bias(times), commanded, tuple(ranges))


def filter_ranges(ranges, interval):
    """Keep the range samples that fall on the coarser schedule."""
    return tuple(s for s in ranges if abs(s.time / interval - round(s.time / interval)) < 1e-6)


def _strain_table(rod, profile, disturbance: Disturbance | None):
    """Exact strain at the actuation knots plus an evaluator between them.

    The actuation inputs are piecewise linear, so the trapezoid rule over
    the knots integrates them exactly and the strain between knots is the
    quadratic continuation from the previous knot.
    """
    knots = np.concatenate([profile.t0[:1], profile.t1])
    accel = np.concatenate([profile.a0[:1], profile.a1])
    strain = np.zeros_like(accel)
    strain[0] = STRAIGHT_STRAIN
    widths = np.diff(knots)
    strain[1:] = STRAIGHT_STRAIN + np.cumsum(
        0.5 * (accel[:-1] + accel[1:]) * widths[:, None], axis=0)

    if disturbance is None:
        dist_accel = np.zeros(6)
        lo = hi = rod.length
    else:
        lo, hi = (disturbance.span[0] * rod.length,
                  disturbance.span[1] * rod.length)
        density = np.concatenate([np.zeros(3), disturbance.moment]) / (hi - lo)
        dist_accel = density / rod.stiffness

    def strain_at(s):
        s = np.asarray(s, dtype=float)
        j = np.clip(np.searchsorted(knots, s, side="right") - 1,
                    0, len(widths) - 1)
        u = (s - knots[j])[..., None]
        slope = (accel[j + 1] - accel[j]) / widths[j][..., None]
        value = strain[j] + accel[j] * u + 0.5 * slope * u * u
        return value + dist_accel * np.clip(s - lo, 0.0, hi - lo)[..., None]

    return strain_at


def simulate_rod(rod, tendons, node_arclengths, sample_arclengths, *,
                 disturbance: Disturbance | None = None, step=1e-4):
    """Truth poses at the sampled arclengths for one rod configuration.

    Uses the same tendon-to-input conversion the estimator sees, plus the
    optional disturbance load that stays hidden from it. step, the longest
    integration step, must be a finite positive number.
    """
    size = _floats(step, "rod simulation step")
    if size.shape != () or not (np.isfinite(size) and size > 0):
        raise DomainError(f"rod simulation step must be a finite positive number, got {step!r}")
    step = float(size)
    if not (disturbance is None or isinstance(disturbance, Disturbance)):
        raise DegenerateInputError(f"disturbance must be a Disturbance or None, "
                                   f"got {disturbance!r}")
    strain_at = _strain_table(rod, tensions_to_inputs(rod, tendons, node_arclengths), disturbance)

    sample_arclengths = _floats(sample_arclengths, "sample arclengths")
    if sample_arclengths.ndim != 1 or not len(sample_arclengths):
        raise DomainError("sample arclengths must be a non-empty sequence, got "
                          f"{sample_arclengths!r}")
    off = [s for s in sample_arclengths if not 0.0 <= s <= rod.length + 1e-12]
    if off:
        raise DomainError(f"sample arclength {off[0]:.6g} lies off the rod [0, {rod.length:.6g}]")
    grid = np.unique(np.concatenate([
        np.arange(0.0, rod.length, step), [rod.length], sample_arclengths]))

    return list(map(Pose, *integrate_poses(strain_at, grid, step, Pose.identity(),
                                           np.searchsorted(grid, sample_arclengths))))


def _floats(value, what):
    """value as a float array, else DomainError naming what and the value.

    A string, a ragged list, a mapping or an integer too large for a float
    is not one.
    """
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be numeric, got {value!r}") from None
