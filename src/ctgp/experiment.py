"""Estimation runs on simulated data: problem assembly, metrics, sweeps.

The two mobile methods share one odometry stream. With method="inputs" the
stream drives the motion prior as piecewise-linear velocity inputs; with
method="wnoa" the prior carries no inputs and the stream is attached as
masked velocity measurements instead, interpolated into the bracketing
nodes when a reading falls between estimation times.

Dead reckoning, the truth's RK4 at the tick step on the interpolated
command, ignores the anchor and the ranges, so a dense inputs problem
started from it can take dozens of iterations. With inputs, nodes 5 s apart
already give a few-centimetre estimate, and GP interpolation recovers the
state at any time from its two bracketing nodes. So build_mobile_problem
attaches to a dense inputs problem the meas-only problem at a coarse
spacing (see there for the rule), with intervals composed from the dense
ones (IntervalArrays.coarsen), and solve starts the dense nodes from its
interpolated solution, falling back to dead reckoning when the coarse solve
fails.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields

import numpy as np

from .continuum import estimate_shape
from .errors import ScenarioError
from .factors import (AnchorFactor, InterpolatedFactor, PlanarLockFactor,
                      PositionFactor, RangeFactor, VelocityFactor)
from .inputs import InputProfile, InputSegment, from_samples
from .interpolation import Trajectory
from .liegroup import Pose, position_jacobian, so3_log
from .prior import NodeArrays, PriorHyper, StateNode, precompute_intervals, prior_mean_propagate
from .scenario import ContinuumScenario, MobileScenario
from .simulate import (MobileTruth, filter_ranges, integrate_poses, interpolate_ticks,
                       simulate_mobile, simulate_rod)
from .solver import Problem, solve

# wheel odometry observes the forward and yaw components only
ODOMETRY_MASK = np.array([True, False, False, False, False, True])

_TIME_TOL = 1e-6
# the source paper's node spacing; the coarse start's spacing is at most this
COARSE_SPACING_MAX = 5.0
# Largest rotation of a coarse interval's input integral: half the local
# chart's range, since the bias the inputs do not know of also turns the
# robot. On a 30 s run with 5 s intervals of up to 3.08 rad, 4 of 20 coarse
# solves settled in a wrong minimum; 2 s intervals (up to 1.4 rad) gave the
# dense optimum in all 20.
COARSE_ROTATION_MAX = 0.5 * np.pi
_SIGMA_FLOOR = 1e-6

TRAJECTORY_COLUMNS = (
    ["time"]
    + [f"gt_{c}" for c in ("x", "y", "z", "rx", "ry", "rz")]
    + [f"est_{c}" for c in ("x", "y", "z", "rx", "ry", "rz")]
    + [f"vel_{c}" for c in ("vx", "vy", "vz", "wx", "wy", "wz")]
    + [f"cov_{c}" for c in ("x", "y", "z", "rx", "ry", "rz",
                            "vx", "vy", "vz", "wx", "wy", "wz")]
)

FIG3_COLUMNS = (
    ["time"]
    + [f"{c}" for c in ("x", "y", "z", "rx", "ry", "rz")]
    + [f"vel_{c}" for c in ("vx", "vy", "vz", "wx", "wy", "wz")]
    + [f"sigma_{c}" for c in ("x", "y", "z", "rx", "ry", "rz",
                              "vx", "vy", "vz", "wx", "wy", "wz")]
)


@dataclass(frozen=True)
class Metrics:
    scenario: str
    method: str
    node_policy: str
    dt_landmark: float
    node_count: int
    position_rmse: float
    position_max: float
    rotation_rmse: float
    rotation_max: float
    solve_time: float
    iterations: int
    converged: bool
    interpolated_fraction: float


@dataclass(frozen=True)
class ContinuumMetrics:
    scenario: str
    config: str
    method: str
    position_rmse: float
    position_max: float
    rotation_rmse: float
    rotation_max: float
    solve_time: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ExperimentResult:
    metrics: Metrics
    truth: MobileTruth
    trajectory: Trajectory
    solution: object
    rows: np.ndarray


def _errors(truth_rot, truth_trans, est_rot, est_trans):
    """The RMSE and max of the position and rotation-angle errors of stacked poses."""
    pos = np.linalg.norm(truth_trans - est_trans, axis=-1)
    rot = np.linalg.norm(so3_log(truth_rot @ np.swapaxes(est_rot, -1, -2)), axis=-1)
    return {"position_rmse": float(np.sqrt(np.mean(pos ** 2))),
            "position_max": float(np.max(pos)),
            "rotation_rmse": float(np.sqrt(np.mean(rot ** 2))),
            "rotation_max": float(np.max(rot))}


def _pose_columns(rot, trans):
    """The (n, 6) CSV pose columns [translation, rotation vector] of stacked poses."""
    return np.concatenate([trans, so3_log(rot)], axis=-1)


def _stacked(poses):
    """(rotations (n, 3, 3), translations (n, 3)) of a sequence of Poses, the rod truth's."""
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def _dead_reckon(truth: MobileTruth, bias):
    """The initial guess at every tick: the odometry-only pose chain, with the given biases.

    The truth's integrator (integrate_poses) on the interpolated command,
    one RK4 step per tick. A node grid's start is a [::stride] slice of it.
    """
    rot, trans = integrate_poses(interpolate_ticks(truth.times, truth.input_velocities),
                                 truth.times, truth.scenario.tick, truth.scenario.start)
    return NodeArrays(np.arange(len(truth.times)), truth.times, rot, trans, bias)


def _anchor(scenario: MobileScenario, bias_measured):
    pose_cov = np.diag(np.maximum(scenario.anchor_pose_sigma, _SIGMA_FLOOR) ** 2)
    bias_cov = np.diag(np.maximum(scenario.anchor_bias_sigma, _SIGMA_FLOOR) ** 2)
    return AnchorFactor(0, scenario.start, np.asarray(bias_measured, dtype=float),
                        pose_cov, bias_cov)


def _fixed_factors(truth: MobileTruth, node_times, dt_landmark, measured_bias):
    """The anchor, the ranges kept at dt_landmark, and the planar locks of one node grid."""
    scenario = truth.scenario
    node_dt = node_times[1] - node_times[0]
    meas = [_anchor(scenario, measured_bias)]
    for s in filter_ranges(truth.ranges, dt_landmark):
        idx = int(round(s.time / node_dt))
        if abs(node_times[idx] - s.time) > _TIME_TOL:
            raise ScenarioError(f"range sample at {s.time} s is off the node grid")
        meas.append(RangeFactor(idx, scenario.landmarks[s.landmark_index],
                                s.value, scenario.range_schedule.variance))
    if scenario.planar and scenario.planar_lock_mode != "none":
        bias_only = scenario.planar_lock_mode == "bias"
        meas.extend(PlanarLockFactor(k, scenario.planar_lock_information, bias_only=bias_only)
                    for k in range(len(node_times)))
    return meas


def _coarse_problem(truth: MobileTruth, intervals, stride, dt_landmark, reckoned):
    """The meas-only inputs problem at the coarse spacing, or None.

    The spacing is the largest multiple of dt_landmark up to
    COARSE_SPACING_MAX that divides the run, is a coarser multiple of the
    node grid, and keeps the rotation part of every composed interval's
    input integral below COARSE_ROTATION_MAX. The coarse intervals are
    composed from the dense ones (IntervalArrays.coarsen).
    """
    tick = truth.scenario.tick
    ticks = len(truth.times) - 1
    for m in range(int(COARSE_SPACING_MAX / dt_landmark + 1e-9), 0, -1):
        spacing = m * dt_landmark
        coarse_stride = int(round(spacing / tick))
        if coarse_stride <= stride:
            return None
        if coarse_stride % stride or ticks % coarse_stride:
            continue
        coarse = intervals.coarsen(coarse_stride // stride)
        if np.any(np.linalg.norm(coarse.input_full[:, 3:6], axis=1) >= COARSE_ROTATION_MAX):
            continue
        return Problem(reckoned[::coarse_stride], coarse,
                       _fixed_factors(truth, truth.times[::coarse_stride], spacing, np.zeros(6)),
                       gauge="auto")
    return None


def build_mobile_problem(truth: MobileTruth, *, method="inputs",
                         node_policy=None, dt_landmark=None):
    """Factor graph for one run. Returns (problem, intervals, node times).

    The intervals are the problem's own prior intervals, one IntervalArrays
    built by precompute_intervals (problem.blocks), returned for building
    the Trajectory of the solution. With method="inputs" they are cut from
    the one odometry profile through every tick; with method="wnoa" from one
    zero profile over the run.

    The nodes start at dead reckoning. With method="inputs" and a node grid
    finer than the coarse spacing, the problem also carries a coarse problem
    (Problem.coarse) whose solution solve uses as the start instead. It is
    the meas-only problem (anchor, ranges and planar locks) at the largest
    multiple of dt_landmark up to COARSE_SPACING_MAX (5 s) that divides the
    run, is a coarser multiple of the node grid, and keeps the rotation of
    every coarse interval's input integral below COARSE_ROTATION_MAX (pi/2).
    Its intervals are composed from this problem's (IntervalArrays.coarsen),
    not built again. When no spacing qualifies there is no coarse problem;
    when the coarse solve fails, solve falls back to dead reckoning.
    """
    scenario = truth.scenario
    if method not in ("inputs", "wnoa"):
        raise ScenarioError(f"method: expected 'inputs' or 'wnoa', got {method!r}")
    node_policy = node_policy or scenario.node_policy
    if node_policy not in ("all", "meas-only"):
        raise ScenarioError(f"node_policy: expected 'all' or 'meas-only', "
                            f"got {node_policy!r}")
    dt_landmark = (scenario.range_schedule.interval if dt_landmark is None
                   else float(dt_landmark))
    base = scenario.range_schedule.interval
    if dt_landmark < base - _TIME_TOL or abs(dt_landmark / base
                                             - round(dt_landmark / base)) > 1e-6:
        raise ScenarioError("dt_landmark: must be a multiple of the simulated "
                            f"range interval ({base} s)")

    tick = scenario.tick
    if node_policy == "all":
        stride = 1
    else:
        stride = int(round(dt_landmark / tick))
        if (len(truth.times) - 1) % stride != 0:
            raise ScenarioError("dt_landmark: must divide the scenario duration")
    node_times = truth.times[::stride]

    qc = scenario.qc_inputs if method == "inputs" else scenario.qc_baseline
    hyper = PriorHyper(qc)
    profile = (from_samples(truth.times, truth.input_velocities) if method == "inputs"
               else InputProfile.zero(node_times[0], node_times[-1]))
    blocks_list = precompute_intervals(profile, node_times, hyper)

    reckoned = _dead_reckon(truth, np.zeros_like(truth.input_velocities) if method == "inputs"
                            else truth.input_velocities.copy())

    measured_bias = (np.zeros(6) if method == "inputs"
                     else truth.input_velocities[0] * ODOMETRY_MASK)
    meas = _fixed_factors(truth, node_times, dt_landmark, measured_bias)

    if method == "wnoa":
        odo_cov = np.diag(scenario.odometry_variance)
        for kt, t in enumerate(truth.times):
            k = kt // stride
            odometry = VelocityFactor(k, truth.input_velocities[kt], odo_cov,
                                      ODOMETRY_MASK)
            if kt % stride == 0:
                meas.append(odometry)
            else:
                # an off-node tick weighs on the state interpolated at its time
                meas.append(InterpolatedFactor(k, blocks_list[k], float(t), odometry))

    coarse = (_coarse_problem(truth, blocks_list, stride, dt_landmark, reckoned)
              if method == "inputs" else None)
    problem = Problem(reckoned[::stride], blocks_list, meas, gauge="auto", coarse=coarse)
    return problem, blocks_list, node_times


def run_experiment(scenario: MobileScenario, *, method="inputs", node_policy=None,
                   dt_landmark=None, seed=None, truth=None) -> ExperimentResult:
    """Simulate (or reuse) a run, solve it, and score it against the truth."""
    if truth is None:
        truth = simulate_mobile(scenario, seed=seed)
    problem, blocks_list, node_times = build_mobile_problem(
        truth, method=method, node_policy=node_policy, dt_landmark=dt_landmark)
    t0 = time.perf_counter()
    solution = solve(problem)
    solve_time = time.perf_counter() - t0
    trajectory = Trajectory(solution.nodes, blocks_list,
                            covariances=solution.node_covariances,
                            cross_covariances=solution.cross_covariances)

    times = truth.times
    est = trajectory.query_many(times, with_covariance=True)
    rows = np.column_stack([times, _pose_columns(truth.rot, truth.trans),
                            _pose_columns(est.rot, est.trans), est.velocity,
                            np.diagonal(est.covariance, axis1=1, axis2=2)])

    metrics = Metrics(
        scenario=scenario.name,
        method=method,
        node_policy=node_policy or scenario.node_policy,
        dt_landmark=(scenario.range_schedule.interval if dt_landmark is None
                     else float(dt_landmark)),
        node_count=len(node_times),
        **_errors(truth.rot, truth.trans, est.rot, est.trans),
        solve_time=solve_time,
        iterations=solution.iterations,
        converged=solution.converged,
        # the nodes sit on ticks; the remaining ticks are interpolated
        interpolated_fraction=(len(times) - len(node_times)) / len(times),
    )
    return ExperimentResult(metrics, truth, trajectory, solution, rows)


def sweep(scenario: MobileScenario, dt_values=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0), *,
          node_policy="meas-only", seed=None):
    """Metrics over measurement sparsities, both methods on one simulated run."""
    truth = simulate_mobile(scenario, seed=seed)
    out = []
    for dt_landmark in dt_values:
        for method in ("inputs", "wnoa"):
            out.append(run_experiment(
                scenario, method=method, node_policy=node_policy,
                dt_landmark=dt_landmark, truth=truth).metrics)
    return out


def xy_nees(truth_pose: Pose, query) -> float:
    """Planar-position NEES of one query against its 2x2 marginal."""
    if query.covariance is None:
        raise ScenarioError("query carries no covariance; solve marginals first")
    a = position_jacobian(query.pose.translation)
    cov_xy = (a @ query.covariance[:6, :6] @ a.T)[:2, :2]
    err = (truth_pose.translation - query.pose.translation)[:2]
    return float(err @ np.linalg.solve(cov_xy, err))


# fig-3-style illustration: hyperparameters anchored to the tuned mobile regime
_FIG3_QC = np.array([1.77e-5] * 3 + [3.50e-5] * 3)
_FIG3_NODE_SPACING = 0.5
_FIG3_DURATION = 3.0
_FIG3_ARC_RATES = (1.2, -1.5, 0.9)
_FIG3_SIN_AMPLITUDE = 1.2
_FIG3_SIN_PERIOD = 6.0
_FIG3_MEAS_OFFSET = np.array([0.05, -0.04, 0.0])
_FIG3_MEAS_VARIANCE = 1e-4
_FIG3_QUERY_RATE = 100.0


def _fig3_profile(variant):
    knots = np.round(np.arange(31) * 0.1, 12)
    if variant == "velocity":
        # piecewise-constant arcs with jumps at the arc boundaries
        z = np.zeros(6)
        arcs = [np.array([1.0, 0.0, 0.0, 0.0, 0.0, _FIG3_ARC_RATES[min(int(t0), 2)]])
                for t0 in knots[:-1]]
        return InputProfile(InputSegment(float(t0), float(t1), v, v, z, z)
                            for t0, t1, v in zip(knots[:-1], knots[1:], arcs)), np.zeros(6)
    if variant == "acceleration":
        accel = np.zeros((31, 6))
        accel[:, 5] = _FIG3_SIN_AMPLITUDE * np.cos(
            2.0 * np.pi * knots / _FIG3_SIN_PERIOD)
        profile = from_samples(knots, np.zeros((31, 6)), accel)
        return profile, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    raise ScenarioError(f"variant: expected 'velocity' or 'acceleration', "
                        f"got {variant!r}")


def _fig3_rows(trajectory, times):
    queried = trajectory.query_many(times, with_covariance=True)
    return np.column_stack([times, _pose_columns(queried.rot, queried.trans), queried.velocity,
                            np.sqrt(np.diagonal(queried.covariance, axis1=1, axis2=2))])


def reproduce_fig3(variant="velocity"):
    """Prior and posterior curves for one illustration variant.

    A 3 s trajectory from a known start at 1 m/s forward, nodes every 0.5 s,
    and a single position measurement at the end, offset from the prior mean
    so the update is visible. Returns the sampled curves plus the pieces
    tests need to check them.
    """
    profile, bias0 = _fig3_profile(variant)
    hyper = PriorHyper(_FIG3_QC)
    node_times = np.round(np.arange(0.0, _FIG3_DURATION + 1e-9,
                                    _FIG3_NODE_SPACING), 12)
    blocks_list = precompute_intervals(profile, node_times, hyper)
    nodes = [StateNode(0.0, Pose.identity(), bias0)]
    for blocks, t1 in zip(blocks_list, node_times[1:]):
        nodes.append(prior_mean_propagate(nodes[-1], blocks, float(t1)))
    anchor = AnchorFactor(0, Pose.identity(), bias0.copy(),
                          1e-12 * np.eye(6), 1e-12 * np.eye(6))

    prior_problem = Problem(nodes, blocks_list, [anchor], gauge="none")
    prior_solution = solve(prior_problem)
    prior_traj = Trajectory(prior_solution.nodes, blocks_list,
                            covariances=prior_solution.node_covariances,
                            cross_covariances=prior_solution.cross_covariances)

    measured = nodes[-1].pose.translation + _FIG3_MEAS_OFFSET
    tip = PositionFactor(len(nodes) - 1, measured,
                         _FIG3_MEAS_VARIANCE * np.eye(3))
    post_problem = Problem(nodes, blocks_list, [anchor, tip], gauge="none")
    post_solution = solve(post_problem)
    post_traj = Trajectory(post_solution.nodes, blocks_list,
                           covariances=post_solution.node_covariances,
                           cross_covariances=post_solution.cross_covariances)

    times = np.arange(0.0, _FIG3_DURATION + 1e-9, 1.0 / _FIG3_QUERY_RATE)
    return {
        "variant": variant,
        "times": times,
        "node_times": node_times,
        "profile": profile,
        "measured_position": measured,
        "measurement_sigma": float(np.sqrt(_FIG3_MEAS_VARIANCE)),
        "prior": _fig3_rows(prior_traj, times),
        "posterior": _fig3_rows(post_traj, times),
        "prior_trajectory": prior_traj,
        "posterior_trajectory": post_traj,
        "prior_converged": prior_solution.converged,
        "posterior_converged": post_solution.converged,
    }


def run_continuum(scenario: ContinuumScenario, *, method="inputs"):
    """Benchmark every (tension set, disturbance) pair of the scenario.

    Truth comes from integrating the rod with the disturbance load applied;
    the estimator sees only the tip position (and, with method="inputs",
    the tendon tensions).
    """
    if method not in ("inputs", "wnoa"):
        raise ScenarioError(f"method: expected 'inputs' or 'wnoa', got {method!r}")
    rod = scenario.rod
    rng = np.random.default_rng(scenario.seed)
    node_arclengths = np.linspace(0.0, rod.length, scenario.node_count)
    hyper = PriorHyper(scenario.qc)
    sigma = float(np.sqrt(scenario.tip_variance))

    out = []
    for i, j, tendons, disturbance in scenario.configs():
        *disks, tip = simulate_rod(rod, tendons, node_arclengths,
                                   rod.disk_arclengths + (rod.length,),
                                   disturbance=disturbance, step=scenario.sim_step)
        tip_measured = tip.translation + rng.standard_normal(3) * sigma
        meas = [PositionFactor(scenario.node_count - 1, tip_measured,
                               scenario.tip_variance * np.eye(3))]
        used = tendons if method == "inputs" else ()
        t0 = time.perf_counter()
        solution, trajectory = estimate_shape(rod, used, meas, hyper, scenario.node_count)
        solve_time = time.perf_counter() - t0

        queried = trajectory.query_many(rod.disk_arclengths)
        out.append(ContinuumMetrics(
            scenario=scenario.name,
            config=f"tensions{i}-load{j}",
            method=method,
            **_errors(*_stacked(disks), queried.rot, queried.trans),
            solve_time=solve_time,
            iterations=solution.iterations,
            converged=solution.converged,
        ))
    return out


def _write_rows(path, header, rows):
    """One header row, then the rows as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, columns, rows, *, what="csv"):
    """One header row, then every value of the rows formatted with .12g.

    Raises ScenarioError, naming the rows as what, unless each row holds one
    number per column.
    """
    if any(np.shape(r) != (len(columns),) for r in rows):
        raise ScenarioError(f"{what} rows must have {len(columns)} columns")
    _write_rows(path, columns, ([f"{v:.12g}" for v in r] for r in rows))


def write_truth_csv(path, truth: MobileTruth):
    """The simulated truth at each tick: time, pose columns and the full body twist."""
    rows = np.column_stack([truth.times, _pose_columns(truth.rot, truth.trans),
                            truth.input_velocities + truth.biases])
    write_csv(path, ["time", "x", "y", "z", "rx", "ry", "rz",
                     "vx", "vy", "vz", "wx", "wy", "wz"], rows, what="truth")


def write_trajectory_csv(path, rows):
    """One row per evaluation time; see TRAJECTORY_COLUMNS for the layout."""
    write_csv(path, TRAJECTORY_COLUMNS, rows, what="trajectory")


def write_fig3_csv(path, rows):
    write_csv(path, FIG3_COLUMNS, rows, what="fig3")


def write_metrics_csv(path, metrics_list):
    """One row per run; the header comes from the metrics dataclass."""
    if not metrics_list:
        raise ScenarioError("no metrics to write")
    names = [f.name for f in fields(metrics_list[0])]
    _write_rows(path, names, ([getattr(m, n) for n in names] for m in metrics_list))
