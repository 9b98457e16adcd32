"""The benchmark's workloads: set-up, one round of operations, and checks.

An operation is one estimation, one method on one simulated run or on one
rod configuration: problem build, solve with covariances, and every
posterior query. Its `run` is timed; its `summarise` and the checks are not.
ctgp is reached through module attributes at call time, so the wrappers
that tracing installs see every call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from ctgp import continuum, experiment, factors, interpolation, prior, scenario, simulate, solver

# The mobile problem is the bundled run of mobile_twisty, simulated with the
# scenario's own seed. Over simulation seeds 1-5 and 7 the inputs/all solve
# takes 5 to 73 iterations, and one range-noise draw on the bundled run makes
# the solve raise, so a seeded problem would be neither steady nor
# failure-free.
# The seed draws what leaves the work unchanged: where the off-knot queries
# fall, and which input knots the continuity probes visit.
MOBILE_SCENARIO = "mobile_twisty"
ROD_SCENARIO = "continuum_bench"

# paper level for the inputs method: 3-4 cm and 4-5 deg with nodes 5 s apart
INPUTS_POSITION_MAX_M = 0.05
INPUTS_ROTATION_MAX_DEG = 5.0
# the baseline only has to land near the truth
WNOA_POSITION_MAX_M = 0.5
WNOA_ROTATION_MAX_DEG = 60.0
# rod shapes, per configuration; the tip is measured to 0.63 mm
ROD_INPUTS_POSITION_MAX_M = 0.005
ROD_INPUTS_ROTATION_MAX_DEG = 3.0
ROD_WNOA_POSITION_MAX_M = 0.03
ROD_WNOA_ROTATION_MAX_DEG = 20.0
# share of rod configurations on which inputs must beat wnoa on position
ROD_INPUTS_WIN_SHARE = 7 / 9

PROBE_OFFSET_S = 1e-6
# a 1e-6 s step moves the robot about 1e-6 m; anything far above is a jump
PROBE_TOLERANCE = 1e-5
PROBE_INPUT_KNOTS = 12
# 40 tip draws make a rod round of about 20 s. That outlasts the run length,
# as the mobile rounds do, so every run measures exactly one round.
ROD_DRAWS = 40


@dataclass
class Estimate:
    """What one operation hands to the checks."""

    label: str
    method: str
    group: int  # operations of one group share the truth and the measurements
    converged: bool
    rot: np.ndarray  # (N, 3, 3) queried at the truth samples
    trans: np.ndarray  # (N, 3)
    true_rot: np.ndarray
    true_trans: np.ndarray
    covariances: np.ndarray  # (M, 12, 12), every covariance queried
    probe_at: tuple | None = None  # (rot, trans) at each probed knot
    probe_beside: tuple | None = None  # (rot, trans) just before, then just after


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    summarise: Callable[[object], Estimate]


def _stack(poses):
    """(rotations (N, 3, 3), translations (N, 3)) of a sequence of poses."""
    return (np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]))


def _problems_of(est, pos_max, rot_max):
    problems = [] if est.converged else ["did not converge"]
    problems += checks.covariances_spd(est.covariances)
    pos, rot = checks.rmse(est.rot, est.trans, est.true_rot, est.true_trans)
    problems += checks.accuracy_within(pos, rot, pos_max, rot_max)
    if est.probe_at is not None:
        at_rot, at_trans = est.probe_at
        beside_rot, beside_trans = est.probe_beside
        problems += checks.continuous(np.concatenate([at_rot, at_rot]),
                                      np.concatenate([at_trans, at_trans]),
                                      beside_rot, beside_trans, tol=PROBE_TOLERANCE)
    return [f"{est.label}: {p}" for p in problems]


def pooled_accuracy(estimates):
    """(position RMSE m, rotation RMSE deg) of the inputs method over a round."""
    mine = [e for e in estimates if e.method == "inputs"]
    return checks.rmse(np.concatenate([e.rot for e in mine]),
                       np.concatenate([e.trans for e in mine]),
                       np.concatenate([e.true_rot for e in mine]),
                       np.concatenate([e.true_trans for e in mine]))


@dataclass
class MobileSetup:
    scenario: object
    truth: object
    true_rot: np.ndarray
    true_trans: np.ndarray
    query_times: np.ndarray  # the ticks first, then any off-knot times
    probe_knots: np.ndarray


class MobileWorkload:
    """Estimation on the bundled mobile_twisty run.

    node_policy "all" puts a node at every 0.1 s tick; "meas-only" with
    dt_landmark 5 keeps a node every 5 s. With off_knot set, the posterior
    is also queried once inside every tick interval, and continuity is
    probed beside the node times and beside some input knots.
    """

    def __init__(self, name, methods, node_policy, dt_landmark=None,
                 off_knot=False, duration=None):
        self.name = name
        self.methods = methods
        self.node_policy = node_policy
        self.dt_landmark = dt_landmark
        self.off_knot = off_knot
        self.duration = duration  # shorter runs for the smoke tests

    def setup(self, seed):
        sc = scenario.bundled_scenario(MOBILE_SCENARIO)
        if self.duration is not None:
            sc = dataclasses.replace(sc, duration=float(self.duration))
        truth = simulate.simulate_mobile(sc)
        ticks = truth.times
        true_rot, true_trans = _stack(truth.poses)
        rng = np.random.default_rng(seed)
        query_times = ticks
        probe_knots = np.empty(0)
        if self.off_knot:
            offsets = rng.uniform(0.1, 0.9, len(ticks) - 1) * sc.tick
            query_times = np.concatenate([ticks, ticks[:-1] + offsets])
            stride = int(round(self.dt_landmark / sc.tick))
            interior = np.arange(1, len(ticks) - 1)
            nodes = interior[interior % stride == 0]
            knots = rng.choice(interior[interior % stride != 0],
                               size=min(PROBE_INPUT_KNOTS, len(interior) - len(nodes)),
                               replace=False)
            probe_knots = ticks[np.sort(np.concatenate([nodes, knots]))]
        return MobileSetup(sc, truth, true_rot, true_trans, query_times, probe_knots)

    def fingerprint(self, setup):
        values = [r.value for r in setup.truth.ranges]
        return np.concatenate([setup.true_rot.ravel(), setup.true_trans.ravel(), values,
                               setup.query_times, setup.probe_knots])

    def check_setup(self, setup):
        sc, truth = setup.scenario, setup.truth
        ticks = np.rint(np.array([r.time for r in truth.ranges]) / sc.tick).astype(int)
        landmarks = sc.landmarks[[r.landmark_index for r in truth.ranges]]
        return checks.ranges_match_truth(
            np.array([r.value for r in truth.ranges]), setup.true_trans[ticks], landmarks,
            sc.range_schedule.scale, np.sqrt(sc.range_schedule.variance))

    def operations(self, setup):
        return [Operation(f"{self.name}/{m}", _mobile_run(self, setup, m),
                          _mobile_summary(self, setup, m))
                for m in self.methods]

    def check_estimate(self, setup, est):
        if est.method == "inputs":
            return _problems_of(est, INPUTS_POSITION_MAX_M, INPUTS_ROTATION_MAX_DEG)
        return _problems_of(est, WNOA_POSITION_MAX_M, WNOA_ROTATION_MAX_DEG)

    def check_round(self, setup, estimates):
        by_method = {e.method: e for e in estimates}
        if not {"inputs", "wnoa"} <= by_method.keys():
            return []
        pos = {m: checks.rmse(e.rot, e.trans, e.true_rot, e.true_trans)[0]
               for m, e in by_method.items()}
        if pos["inputs"] < pos["wnoa"]:
            return []
        return [f"{self.name}: inputs position RMSE {pos['inputs']:.4f} m does not beat "
                f"wnoa {pos['wnoa']:.4f} m"]


def _mobile_run(workload, setup, method):
    def run():
        problem, blocks, _ = experiment.build_mobile_problem(
            setup.truth, method=method, node_policy=workload.node_policy,
            dt_landmark=workload.dt_landmark)
        solution = solver.solve(problem)
        trajectory = interpolation.Trajectory(
            list(solution.nodes), blocks, covariances=solution.node_covariances,
            cross_covariances=solution.cross_covariances)
        results = [trajectory.query(float(t), with_covariance=True)
                   for t in setup.query_times]
        return solution, trajectory, results
    return run


def _mobile_summary(workload, setup, method):
    def summarise(raw):
        solution, trajectory, results = raw
        n = len(setup.true_trans)
        rot, trans = _stack([q.pose for q in results[:n]])
        est = Estimate(f"{workload.name}/{method}", method, 0, solution.converged,
                       rot, trans, setup.true_rot, setup.true_trans,
                       np.stack([q.covariance for q in results]))
        if len(setup.probe_knots):
            knots = setup.probe_knots
            est.probe_at = _stack([trajectory.query(float(t)).pose for t in knots])
            beside = np.concatenate([knots - PROBE_OFFSET_S, knots + PROBE_OFFSET_S])
            est.probe_beside = _stack([trajectory.query(float(t)).pose for t in beside])
        return est
    return summarise


@dataclass
class RodSetup:
    scenario: object
    hyper: object
    configs: list  # (label, tendons) per configuration
    arclengths: np.ndarray  # the disks, where truth is compared
    true_rot: list  # per configuration, (disks, 3, 3)
    true_trans: list
    tips: np.ndarray  # (draws, configurations, 3) measured tip positions


class RodWorkload:
    """Shape estimation on every continuum_bench configuration.

    Each rod truth is simulated once; each of `draws` seeded tip
    measurements per configuration is estimated with both methods.
    """

    name = "rod_shapes"

    def __init__(self, draws=ROD_DRAWS, configs=None):
        self.draws = draws
        self.config_limit = configs  # fewer configurations for the smoke tests

    def setup(self, seed):
        sc = scenario.bundled_scenario(ROD_SCENARIO)
        rod = sc.rod
        nodes = np.linspace(0.0, rod.length, sc.node_count)
        arclengths = np.unique(np.concatenate([rod.disk_arclengths, [rod.length]]))
        configs, true_rot, true_trans = [], [], []
        for i, j, tendons, disturbance in sc.configs()[:self.config_limit]:
            poses = simulate.simulate_rod(rod, tendons, nodes, arclengths,
                                          disturbance=disturbance, step=sc.sim_step)
            rot, trans = _stack(poses)
            configs.append((f"tensions{i}-load{j}", tendons))
            true_rot.append(rot)
            true_trans.append(trans)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((self.draws, len(configs), 3)) * np.sqrt(sc.tip_variance)
        tips = np.stack([t[-1] for t in true_trans]) + noise
        return RodSetup(sc, prior.PriorHyper(sc.qc), configs, arclengths,
                        true_rot, true_trans, tips)

    def fingerprint(self, setup):
        return np.concatenate([np.ravel(setup.true_rot), np.ravel(setup.true_trans),
                               setup.tips.ravel()])

    def check_setup(self, setup):
        problems = []
        arclengths = np.concatenate([[0.0], setup.arclengths])
        for (label, _), rot, trans in zip(setup.configs, setup.true_rot, setup.true_trans):
            base_rot = np.concatenate([np.eye(3)[None], rot])
            base_trans = np.concatenate([np.zeros((1, 3)), trans])
            problems += [f"{label}: {p}" for p in
                         checks.backbone_spacing(base_rot, base_trans, np.diff(arclengths))]
        return problems

    def operations(self, setup):
        ops = []
        for d in range(self.draws):
            for c, (label, tendons) in enumerate(setup.configs):
                for method in ("inputs", "wnoa"):
                    name = f"{self.name}/{label}/draw{d}/{method}"
                    group = d * len(setup.configs) + c
                    ops.append(Operation(name, _rod_run(setup, tendons, method, setup.tips[d, c]),
                                         _rod_summary(setup, name, method, group, c)))
        return ops

    def check_estimate(self, setup, est):
        if est.method == "inputs":
            return _problems_of(est, ROD_INPUTS_POSITION_MAX_M, ROD_INPUTS_ROTATION_MAX_DEG)
        return _problems_of(est, ROD_WNOA_POSITION_MAX_M, ROD_WNOA_ROTATION_MAX_DEG)

    def check_round(self, setup, estimates):
        pos = {}
        for e in estimates:
            pos[e.group, e.method] = checks.rmse(e.rot, e.trans, e.true_rot, e.true_trans)[0]
        groups = {g for g, _ in pos}
        wins = sum(pos[g, "inputs"] < pos[g, "wnoa"] for g in groups
                   if (g, "inputs") in pos and (g, "wnoa") in pos)
        if wins >= ROD_INPUTS_WIN_SHARE * len(groups):
            return []
        return [f"{self.name}: inputs beats wnoa on {wins} of {len(groups)} "
                f"configuration draws, fewer than {ROD_INPUTS_WIN_SHARE:.2f} of them"]


def _rod_run(setup, tendons, method, tip):
    sc = setup.scenario

    def run():
        meas = [factors.PositionFactor(sc.node_count - 1, tip, sc.tip_variance * np.eye(3))]
        used = tendons if method == "inputs" else ()
        solution, trajectory = continuum.estimate_shape(
            sc.rod, used, meas, setup.hyper, sc.node_count)
        results = [trajectory.query(float(s), with_covariance=True) for s in setup.arclengths]
        return solution, results
    return run


def _rod_summary(setup, name, method, group, config):
    def summarise(raw):
        solution, results = raw
        rot, trans = _stack([q.pose for q in results])
        return Estimate(name, method, group, solution.converged, rot, trans,
                        setup.true_rot[config], setup.true_trans[config],
                        np.stack([q.covariance for q in results]))
    return summarise


def make(name):
    """The named workload at full size."""
    if name == "dense_twisty":
        return MobileWorkload(name, ("inputs",), "all")
    if name == "sparse_5s":
        return MobileWorkload(name, ("inputs", "wnoa"), "meas-only", dt_landmark=5.0,
                              off_knot=True)
    if name == "rod_shapes":
        return RodWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense_twisty", "sparse_5s", "rod_shapes")
