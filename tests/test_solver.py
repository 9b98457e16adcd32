import os
import subprocess
import sys

import numpy as np
import pytest

import ctgp

from ctgp import factors, inputs, interpolation, prior, solver
from ctgp.errors import (DegenerateInputError, GaugeFreedomError, HyperparameterError,
                         IllConditionedRotationError, IntervalTooLongError,
                         WiringError)
from ctgp.liegroup import Pose, exp_map, log_map, skew, so3_log


def bounded_twist(rng, max_norm):
    d = rng.normal(size=6)
    return rng.uniform(0.0, max_norm) * d / np.linalg.norm(d)


def wnoa_chain(n_nodes, dt=0.3, qc=None):
    hyper = prior.PriorHyper(np.ones(6) if qc is None else qc)
    return [prior.IntervalBlocks(inputs.InputProfile.zero(k * dt, (k + 1) * dt), hyper)
            for k in range(n_nodes - 1)]


def input_chain(rng, n_nodes, seg_dur=0.25, scale=0.8):
    """One single-segment interval per node pair, inputs continuous across knots."""
    hyper = prior.PriorHyper(rng.uniform(0.3, 1.5, size=6))
    blocks_list = []
    t = 0.0
    v_prev, a_prev = bounded_twist(rng, scale), bounded_twist(rng, scale)
    for _ in range(n_nodes - 1):
        v_next, a_next = bounded_twist(rng, scale), bounded_twist(rng, scale)
        seg = inputs.InputSegment(t, t + seg_dur, v_prev, v_next, a_prev, a_next)
        blocks_list.append(prior.IntervalBlocks(inputs.InputProfile((seg,)), hyper))
        t += seg_dur
        v_prev, a_prev = v_next, a_next
    return blocks_list


def propagate_chain(start, blocks_list):
    nodes = [start]
    for b in blocks_list:
        nodes.append(prior.prior_mean_propagate(nodes[-1], b, b.t1))
    return nodes


def perturbed(rng, nodes, pose_scale, bias_scale):
    return [prior.StateNode(n.time,
                            exp_map(bounded_twist(rng, pose_scale)) @ n.pose,
                            n.bias + bounded_twist(rng, bias_scale))
            for n in nodes]


def pose_gap(a, b):
    return np.linalg.norm(log_map(a @ b.inverse()))


def test_interpolated_factors_interpolate_with_their_own_blocks():
    """Blocks over an interval's times but with other triples are kept, not swapped for the prior's.

    One factor's blocks have another Qc, not a multiple of the prior's (which
    would leave the gains as they are), and one's are the general route over
    zero inputs; each batched row equals the factor's own evaluate, and the
    three rows differ.
    """
    rng = np.random.default_rng(79)
    blocks_list = input_chain(rng, 4)
    truth = propagate_chain(prior.StateNode(0.0, Pose.identity(), bounded_twist(rng, 0.4)),
                            blocks_list)
    shared = blocks_list[1]
    other_qc = prior.IntervalBlocks(shared.profile,
                                    prior.PriorHyper(np.arange(1.0, 7.0) * np.diag(shared.hyper.qc)))
    general = prior.IntervalBlocks(inputs.InputProfile.zero(shared.t0, shared.t1), shared.hyper,
                                   force_general=True)
    tau = shared.t0 + 0.1
    meas = [factors.InterpolatedFactor(1, b, tau, factors.VelocityFactor(
        1, np.zeros(6), 1e-2 * np.eye(6), np.ones(6, dtype=bool)))
        for b in (shared, other_qc, general)]
    # the wiring check sees only the times, so it takes all three
    problem = solver.Problem(truth, blocks_list, meas)
    batches, rest = factors.batch_factors(problem.measurement_factors)
    # the other Qc makes a batch of its own; the general route joins the shared one
    assert not rest and [len(b.index) for b in batches] == [2, 1]
    nodes = prior.NodeArrays.stack(perturbed(rng, truth, 5e-2, 5e-2))
    chart = prior.interval_chart(nodes)
    first, second = (b.linearize(nodes, chart) for b in batches)
    errors = []
    for f, (error, jac), row in zip(meas, (first, second, first), (0, 0, 1)):
        want = f.evaluate(nodes)
        assert np.allclose(error[row], want.error, rtol=1e-12, atol=1e-14)
        assert np.allclose(jac[row], np.concatenate([j for _, j in want.jacobians], axis=-1),
                           rtol=1e-10, atol=1e-12)
        errors.append(error[row])
    assert min(np.abs(a - b).max() for i, a in enumerate(errors) for b in errors[i + 1:]) > 1e-9


def test_consistent_problem_converges_in_one_iteration():
    rng = np.random.default_rng(70)
    blocks_list = wnoa_chain(5)
    start = prior.StateNode(0.0, exp_map(bounded_twist(rng, 1.0)),
                            bounded_twist(rng, 0.5))
    nodes = propagate_chain(start, blocks_list)
    sol = solver.solve(solver.Problem(nodes, blocks_list))
    assert sol.converged and sol.iterations == 1
    assert sol.cost_history[0] < 1e-12
    for before, after in zip(nodes, sol.nodes):
        assert pose_gap(before.pose, after.pose) < 1e-9
        assert np.allclose(before.bias, after.bias, atol=1e-9)


def test_prior_only_solution_is_propagated_mean():
    rng = np.random.default_rng(71)
    blocks_list = input_chain(rng, 6)
    start = prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.8)),
                            bounded_twist(rng, 0.5))
    truth = propagate_chain(start, blocks_list)
    # keep node 0 at the truth so the auto gauge anchor is consistent
    guesses = [truth[0]] + perturbed(rng, truth[1:], 5e-2, 5e-2)
    sol = solver.solve(solver.Problem(guesses, blocks_list))
    assert sol.converged
    assert sol.cost_history[-1] < 1e-16
    for est, ref in zip(sol.nodes, truth):
        assert pose_gap(est.pose, ref.pose) < 1e-8
        assert np.allclose(est.bias, ref.bias, atol=1e-8)


def factor_evals(blocks_list, all_factors, nodes):
    """Each prior interval's FactorEval, then each factor's own."""
    return ([factors.prior_factor_error(nodes[k], nodes[k + 1], b, indices=(k, k + 1))
             for k, b in enumerate(blocks_list)]
            + [f.evaluate(nodes) for f in all_factors])


def assemble_dense(blocks_list, all_factors, nodes):
    k = len(nodes)
    h = np.zeros((12 * k, 12 * k))
    for ev in factor_evals(blocks_list, all_factors, nodes):
        for i, ji in ev.jacobians:
            for j, jj in ev.jacobians:
                h[12 * i:12 * i + 12, 12 * j:12 * j + 12] += ji.T @ ev.information @ jj
    return h


def reference_normal_equations(blocks_list, all_factors, nodes):
    """Cost, dense H and gradient summed from each factor's own FactorEval."""
    k = len(nodes)
    cost, h, g = 0.0, np.zeros((12 * k, 12 * k)), np.zeros(12 * k)
    for ev in factor_evals(blocks_list, all_factors, nodes):
        cost += ev.cost()
        for i, ji in ev.jacobians:
            g[12 * i:12 * i + 12] -= ji.T @ ev.information @ ev.error
            for j, jj in ev.jacobians:
                h[12 * i:12 * i + 12, 12 * j:12 * j + 12] += ji.T @ ev.information @ jj
    return cost, h, g


def dense_from_blocks(d, e):
    k = len(d)
    h = np.zeros((12 * k, 12 * k))
    for i in range(k):
        h[12 * i:12 * i + 12, 12 * i:12 * i + 12] = d[i]
    for i in range(k - 1):
        h[12 * i + 12:12 * i + 24, 12 * i:12 * i + 12] = e[i]
        h[12 * i:12 * i + 12, 12 * i + 12:12 * i + 24] = e[i].T
    return h


def test_batched_assembly_matches_per_factor_reference():
    class RelativeTranslation:
        """A custom two-node factor, which the solver evaluates on its own."""

        indices = (2, 3)

        def evaluate(self, nodes):
            a, b = nodes[2].pose.translation, nodes[3].pose.translation
            ja, jb = np.zeros((3, 12)), np.zeros((3, 12))
            ja[:, :3], ja[:, 3:6] = np.eye(3), -skew(a)
            jb[:, :3], jb[:, 3:6] = -np.eye(3), skew(b)
            return factors.FactorEval(np.array([0.1, -0.2, 0.3]) - (b - a),
                                      ((2, ja), (3, jb)), 50.0 * np.eye(3))

    rng = np.random.default_rng(78)
    blocks_list = input_chain(rng, 6, seg_dur=0.3, scale=0.6)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.6)),
                                            bounded_twist(rng, 0.4)), blocks_list)
    tau = blocks_list[3].t0 + 0.11
    landmark = np.array([1.0, -2.0, 0.5])
    dist = lambda n: np.linalg.norm(landmark - n.pose.translation)
    odometry_mask = np.array([1, 0, 0, 0, 0, 1], dtype=bool)
    odometry = lambda k, v_in: factors.VelocityFactor(
        k, truth[k].bias + 0.03, np.diag([1e-2, 2e-2]), odometry_mask, input_velocity=v_in)
    meas = [
        factors.AnchorFactor(0, truth[0].pose, truth[0].bias, 1e-4 * np.eye(6),
                             1e-3 * np.eye(6)),
        factors.RangeFactor(1, landmark, dist(truth[1]) + 0.05, 1e-2),
        factors.RangeFactor(4, landmark, dist(truth[4]) - 0.03, 2e-2),
        factors.RangeFactor(1, 2.0 * landmark, dist(truth[1]), 1e-2),
        factors.PositionFactor(5, truth[5].pose.translation + 0.01,
                               np.diag([1e-3, 2e-3, 3e-3])),
        factors.PoseFactor(2, truth[2].pose, 1e-3 * np.eye(6)),
        factors.VelocityFactor(3, truth[3].bias + 0.02, 1e-2 * np.eye(6),
                               np.array([1, 0, 0, 0, 0, 1], dtype=bool)),
        factors.VelocityFactor(4, truth[4].bias, 1e-2 * np.eye(6), np.ones(6, dtype=bool),
                               input_velocity=0.1 * np.ones(6)),
        factors.VelocityFactor(5, truth[5].bias, np.diag([1e-2, 2e-2]),
                               np.array([1, 0, 0, 0, 0, 1], dtype=bool),
                               input_velocity=-0.1 * np.ones(6)),
        factors.PlanarLockFactor(1, 1e4),
        factors.PlanarLockFactor(2, 1e3, bias_only=True),
        factors.PlanarLockFactor(3, 1e4),
        # batched interpolated groups, one per inner type: ranges in interval
        # 3, odometry in intervals 1 and 3, and each other one-node type
        factors.InterpolatedFactor(3, blocks_list[3], tau,
                                   factors.RangeFactor(3, landmark, 2.0, 0.05)),
        factors.InterpolatedFactor(1, blocks_list[1], blocks_list[1].t0 + 0.07,
                                   odometry(1, 0.1 * np.ones(6))),
        factors.InterpolatedFactor(3, blocks_list[3], tau + 0.1, odometry(3, np.zeros(6))),
        factors.InterpolatedFactor(
            3, blocks_list[3], tau - 0.05,
            factors.RangeFactor(3, landmark, dist(truth[3]) + 0.02, 1e-2)),
        factors.InterpolatedFactor(
            2, blocks_list[2], blocks_list[2].t0 + 0.13,
            factors.PositionFactor(2, truth[2].pose.translation - 0.01,
                                   np.diag([2e-3, 1e-3, 3e-3]))),
        factors.InterpolatedFactor(0, blocks_list[0], blocks_list[0].t0 + 0.2,
                                   factors.PoseFactor(0, truth[1].pose, 1e-3 * np.eye(6))),
        factors.InterpolatedFactor(
            4, blocks_list[4], blocks_list[4].t0 + 0.09,
            factors.AnchorFactor(4, truth[4].pose, truth[4].bias, 2e-4 * np.eye(6),
                                 1e-3 * np.eye(6))),
        factors.InterpolatedFactor(1, blocks_list[1], blocks_list[1].t0 + 0.21,
                                   factors.PlanarLockFactor(1, 1e4)),
        factors.InterpolatedFactor(2, blocks_list[2], blocks_list[2].t0 + 0.04,
                                   factors.PlanarLockFactor(2, 1e3, bias_only=True)),
        RelativeTranslation(),
    ]
    problem = solver.Problem(truth, blocks_list, meas)
    lin = solver._Linearizer(problem)
    assert len(lin.batches) == 15 and len(lin.others) == 1
    assert sum(isinstance(b, factors.InterpolatedBatch) for b in lin.batches) == 7
    nodes = perturbed(rng, truth, 5e-2, 5e-2)

    cost, d, e, g = lin.assemble(prior.NodeArrays.stack(nodes))
    want_cost, want_h, want_g = reference_normal_equations(
        blocks_list, meas + problem.gauge_factors(), nodes)
    h = dense_from_blocks(d, e)
    assert abs(cost - want_cost) <= 1e-12 * want_cost
    assert np.linalg.norm(h - want_h) <= 1e-12 * np.linalg.norm(want_h)
    assert np.linalg.norm(g.ravel() - want_g) <= 1e-12 * np.linalg.norm(want_g)


def random_block_tridiagonal(rng, k):
    """Diagonal blocks dominate their off-diagonal neighbours, so the matrix is SPD."""
    e = rng.normal(size=(k - 1, 12, 12))
    norms = np.concatenate([[0.0], np.linalg.norm(e, 2, axis=(1, 2)), [0.0]])
    a = rng.normal(size=(k, 12, 12))
    d = a @ np.swapaxes(a, -1, -2) / 12.0
    d += (norms[:-1] + norms[1:] + 1.0)[:, None, None] * np.eye(12)
    return d, e, rng.normal(size=(k, 12))


def test_sweep_on_inverse_pivots_matches_dense_solve():
    rng = np.random.default_rng(81)
    d, e, g = random_block_tridiagonal(rng, 7)
    idx = np.arange(12)
    for lam in (0.0, 1e-3, 10.0):
        damped = d.copy()
        if lam > 0.0:
            damped[:, idx, idx] += lam * damped[:, idx, idx] + 1e-12
        want = np.linalg.solve(dense_from_blocks(damped, e), g.ravel())
        got = solver._tridiag_solve(solver._tridiag_factor(d, e, lam), e, g)
        assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)

    # an indefinite block, early or last, fails the factorization
    for k in (2, 6):
        bad = d.copy()
        bad[k] -= 2.0 * np.linalg.eigvalsh(bad[k])[-1] * np.eye(12)
        with pytest.raises(np.linalg.LinAlgError):
            solver._tridiag_factor(bad, e, 0.0)


def test_package_runs_without_scipy():
    """ctgp imports, solves and queries with SciPy never loaded."""
    code = """
import sys
import numpy as np
import ctgp
from ctgp import factors, inputs, interpolation, prior, solver
seg = inputs.InputSegment(0.0, 0.3, 0.1 * np.ones(6), 0.2 * np.ones(6),
                          np.zeros(6), np.zeros(6))
blocks = prior.IntervalBlocks(inputs.InputProfile((seg,)), prior.PriorHyper(np.ones(6)))
nodes = [prior.StateNode(t, ctgp.Pose.identity(), np.zeros(6)) for t in (0.0, 0.3)]
sol = solver.solve(solver.Problem(nodes, [blocks],
                                  [factors.PositionFactor(1, np.ones(3), np.eye(3))],
                                  gauge="fix-first"))
traj = interpolation.Trajectory(list(sol.nodes), [blocks], sol.node_covariances,
                                sol.cross_covariances)
traj.query(0.1, with_covariance=True)
assert sol.converged
print("scipy loaded" if "scipy" in sys.modules else "scipy absent")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctgp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["scipy", "absent"]


def test_covariance_blocks_match_dense_inverse():
    rng = np.random.default_rng(72)
    blocks_list = input_chain(rng, 4, seg_dur=0.3, scale=0.6)
    start = prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.6)),
                            bounded_twist(rng, 0.4))
    truth = propagate_chain(start, blocks_list)

    tau = blocks_list[1].t0 + 0.17
    q_tau = interpolation.Trajectory(truth, blocks_list).query(tau)
    vel_cov = np.diag([4e-4, 4e-4])
    mask = np.array([1, 0, 0, 0, 0, 1], dtype=bool)

    landmark = truth[2].pose.translation + np.array([1.0, -2.0, 0.5])
    meas = [
        factors.PoseFactor(0, truth[0].pose, 1e-4 * np.eye(6)),
        factors.RangeFactor(2, landmark,
                            float(np.linalg.norm(landmark - truth[2].pose.translation)),
                            1e-2),
        factors.PositionFactor(3, truth[3].pose.translation.copy(), 1e-3 * np.eye(3)),
        factors.InterpolatedFactor(
            1, blocks_list[1], tau,
            factors.VelocityFactor(1, q_tau.velocity, vel_cov, mask,
                                   input_velocity=blocks_list[1].profile.evaluate(tau)[0])),
    ]
    guesses = perturbed(rng, truth, 2e-2, 2e-2)
    problem = solver.Problem(guesses, blocks_list, meas)
    sol = solver.solve(problem)
    assert sol.converged
    assert sol.cost_history[-1] < 1e-18

    dense = assemble_dense(blocks_list, meas, list(sol.nodes))
    full_cov = np.linalg.inv(dense)
    for k in range(4):
        block = full_cov[12 * k:12 * k + 12, 12 * k:12 * k + 12]
        assert np.allclose(sol.node_covariances[k], block, rtol=1e-8, atol=1e-12)
    for k in range(3):
        block = full_cov[12 * k:12 * k + 12, 12 * (k + 1):12 * (k + 1) + 12]
        assert np.allclose(sol.cross_covariances[k], block, rtol=1e-8, atol=1e-12)


def test_noise_free_measurements_recover_truth():
    rng = np.random.default_rng(73)
    blocks_list = input_chain(rng, 5)
    start = prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.7)),
                            bounded_twist(rng, 0.5))
    truth = propagate_chain(start, blocks_list)
    meas = [
        factors.PoseFactor(0, truth[0].pose, 1e-5 * np.eye(6)),
        factors.PositionFactor(2, truth[2].pose.translation.copy(), 1e-4 * np.eye(3)),
        factors.PositionFactor(4, truth[4].pose.translation.copy(), 1e-4 * np.eye(3)),
    ]
    guesses = perturbed(rng, truth, 5e-2, 5e-2)
    sol = solver.solve(solver.Problem(guesses, blocks_list, meas))
    assert sol.converged
    assert sol.iterations <= 15
    assert sol.cost_history[-1] < 1e-14
    for est, ref in zip(sol.nodes, truth):
        assert pose_gap(est.pose, ref.pose) < 1e-6
    history = np.array(sol.cost_history)
    assert np.all(np.diff(history) <= 1e-12 * np.maximum(1.0, history[:-1]))


def test_solver_is_deterministic():
    rng = np.random.default_rng(74)
    blocks_list = input_chain(rng, 4)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.5)),
                                            bounded_twist(rng, 0.4)), blocks_list)
    guesses = perturbed(rng, truth, 3e-2, 3e-2)

    def run():
        return solver.solve(solver.Problem(guesses, blocks_list))

    a, b = run(), run()
    assert a.cost_history == b.cost_history
    assert np.array_equal(a.node_covariances, b.node_covariances)
    assert np.array_equal(a.cross_covariances, b.cross_covariances)
    for na, nb in zip(a.nodes, b.nodes):
        assert np.array_equal(na.pose.matrix(), nb.pose.matrix())
        assert np.array_equal(na.bias, nb.bias)


def test_gauge_policies():
    rng = np.random.default_rng(75)
    blocks_list = wnoa_chain(4)
    start = prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.5)),
                            bounded_twist(rng, 0.4))
    nodes = propagate_chain(start, blocks_list)

    # the sweep meets the free gauge at the last pivot block
    with pytest.raises(GaugeFreedomError,
                       match=r"at node 3 \(t = 0\.9 s\).*gauge='fix-first'"):
        solver.solve(solver.Problem(nodes, blocks_list, gauge="none"))

    sol = solver.solve(solver.Problem(nodes, blocks_list,
                                      gauge="fix-first"))
    assert sol.converged
    assert pose_gap(sol.nodes[0].pose, nodes[0].pose) < 1e-6

    # with absolute measurements present, auto must not pin the first guess;
    # a right shift leaves the relative poses, hence the prior cost, unchanged
    moved = exp_map(np.array([0.3, -0.2, 0.1, 0.05, -0.04, 0.08]))
    shifted = [prior.StateNode(n.time, n.pose @ moved, n.bias) for n in nodes]
    meas = [factors.PoseFactor(0, shifted[0].pose, 1e-6 * np.eye(6)),
            factors.PoseFactor(3, shifted[3].pose, 1e-6 * np.eye(6))]
    sol_auto = solver.solve(solver.Problem(nodes, blocks_list, meas,
                                           gauge="auto"))
    assert sol_auto.converged
    assert sol_auto.cost_history[-1] < 1e-12
    for est, ref in zip(sol_auto.nodes, shifted):
        assert pose_gap(est.pose, ref.pose) < 1e-6


def test_auto_gauge_reads_an_interpolated_factor_by_its_inner():
    rng = np.random.default_rng(76)
    blocks_list = wnoa_chain(4, dt=1.0)
    nodes = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.5)),
                                            bounded_twist(rng, 0.4)), blocks_list)
    velocity = factors.VelocityFactor(1, nodes[1].bias, 1e-2 * np.eye(6), np.ones(6, dtype=bool))
    position = factors.PositionFactor(1, nodes[1].pose.translation, 1e-2 * np.eye(3))

    # a velocity says nothing about where the robot is, wherever it is taken
    relative = solver.Problem(nodes, blocks_list,
                              [factors.InterpolatedFactor(1, blocks_list[1], 1.5, velocity)])
    assert len(relative.gauge_factors()) == 1
    sol = solver.solve(relative)
    assert sol.converged
    # a free gauge leaves pose variances near 1e12
    assert np.max(np.diagonal(sol.node_covariances[:, :6, :6], axis1=1, axis2=2)) < 10.0

    absolute = solver.Problem(nodes, blocks_list,
                              [factors.InterpolatedFactor(1, blocks_list[1], 1.5, position)])
    assert absolute.gauge_factors() == []


def test_first_indefinite_pivot_block_is_reported():
    d = np.stack([np.eye(12)] * 5)
    d[2, 4, 4] = -1.0
    with pytest.raises(np.linalg.LinAlgError) as info:
        solver._tridiag_factor(d, np.zeros((4, 12, 12)), 0.0)
    assert info.value.block == 2
    d[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError) as info:
        solver._tridiag_factor(d, np.zeros((4, 12, 12)), 0.0)
    assert info.value.block == 1


class _RaisingFactor:
    """A one-node factor whose evaluation always fails."""

    indices = (0,)

    def evaluate(self, nodes):
        raise IllConditionedRotationError("cannot evaluate")


def coarse_and_fine(rng):
    """A 9-node input chain with pose measurements, and its 3-node coarse problem."""
    blocks_list = input_chain(rng, 9, scale=0.5)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.4)),
                                            bounded_twist(rng, 0.3)), blocks_list)
    meas = [factors.PoseFactor(k, truth[k].pose, 1e-4 * np.eye(6)) for k in (0, 4, 8)]
    guesses = perturbed(rng, truth, 0.3, 0.3)
    coarse_blocks = [prior.IntervalBlocks.compose(blocks_list[i:i + 4]) for i in (0, 4)]
    coarse_meas = [factors.PoseFactor(j, truth[k].pose, 1e-4 * np.eye(6))
                   for j, k in enumerate((0, 4, 8))]
    coarse = solver.Problem(guesses[::4], coarse_blocks, coarse_meas)
    return guesses, blocks_list, meas, coarse


def test_coarse_start_seeds_the_dense_solve(monkeypatch):
    rng = np.random.default_rng(78)
    guesses, blocks_list, meas, coarse = coarse_and_fine(rng)
    given = solver.solve(solver.Problem(guesses, blocks_list, meas))
    trials = {3: 0, 9: 0}
    apply_step = solver._apply_step

    def counted_step(state, delta):
        trials[len(state.time)] += 1
        return apply_step(state, delta)

    monkeypatch.setattr(solver, "_apply_step", counted_step)
    seeded = solver.solve(solver.Problem(guesses, blocks_list, meas,
                                         coarse=coarse))
    assert (given.start, given.coarse_iterations) == ("given", 0)
    assert given.coarse_cost_evaluations == 0
    assert given.cost_evaluations >= given.iterations
    assert seeded.start == "coarse" and seeded.coarse_iterations > 0
    # the coarse solve's 3-node trials and the dense solve's 9-node ones apart
    assert seeded.coarse_cost_evaluations == trials[3] >= seeded.coarse_iterations
    assert seeded.cost_evaluations == trials[9] >= seeded.iterations
    assert seeded.converged and seeded.iterations < given.iterations
    assert seeded.cost_history[0] < given.cost_history[0]
    assert seeded.cost_history[-1] == pytest.approx(given.cost_history[-1], rel=1e-9, abs=1e-12)
    for a, b in zip(seeded.nodes, given.nodes):
        assert pose_gap(a.pose, b.pose) < 1e-6


@pytest.mark.parametrize("break_coarse", ["raises", "no_convergence", "chart"])
def test_failed_coarse_start_falls_back_to_the_given_nodes(break_coarse, monkeypatch):
    rng = np.random.default_rng(79)
    guesses, blocks_list, meas, coarse = coarse_and_fine(rng)
    if break_coarse == "raises":
        coarse = solver.Problem(coarse.nodes, coarse.blocks,
                                coarse.measurement_factors + [_RaisingFactor()])
    elif break_coarse == "no_convergence":
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    else:
        # coarse nodes pinned at one pose with opposite yaw rates of 15 rad/s:
        # 1 s apart, the interpolated rotation overshoots pi at a dense node
        pose = coarse.nodes[0].pose
        pinned = [factors.AnchorFactor(k, pose, np.array([0, 0, 0, 0, 0, 15.0 * (-1) ** k]),
                                       1e-12 * np.eye(6), 1e-12 * np.eye(6))
                  for k in range(len(coarse.nodes))]
        coarse = solver.Problem(coarse.nodes, coarse.blocks, pinned)
        alone = solver.solve(coarse)
        assert alone.converged
        trajectory = interpolation.Trajectory(list(alone.nodes), coarse.blocks)
        with pytest.raises(IntervalTooLongError):
            trajectory.query_many([n.time for n in guesses])
    plain = solver.solve(solver.Problem(guesses, blocks_list, meas))
    fallback = solver.solve(solver.Problem(guesses, blocks_list, meas,
                                           coarse=coarse))
    assert fallback.start == "given"
    assert fallback.cost_history == plain.cost_history
    assert fallback.iterations == plain.iterations
    assert fallback.cost_evaluations == plain.cost_evaluations
    assert np.array_equal(fallback.node_covariances, plain.node_covariances)
    assert np.array_equal(fallback.cross_covariances, plain.cross_covariances)
    for a, b in zip(fallback.nodes, plain.nodes):
        assert np.array_equal(a.pose.matrix(), b.pose.matrix())
        assert np.array_equal(a.bias, b.bias)


def test_coarse_problem_must_span_the_same_times():
    rng = np.random.default_rng(80)
    guesses, blocks_list, meas, coarse = coarse_and_fine(rng)
    short = solver.Problem(coarse.nodes[:2], coarse.blocks[:1])
    with pytest.raises(WiringError, match="same times"):
        solver.Problem(guesses, blocks_list, meas, coarse=short)


def test_nonconvergence_is_reported(monkeypatch):
    rng = np.random.default_rng(76)
    blocks_list = input_chain(rng, 5)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.5)),
                                            bounded_twist(rng, 0.4)), blocks_list)
    guesses = [truth[0]] + perturbed(rng, truth[1:], 0.3, 0.3)
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
    sol = solver.solve(solver.Problem(guesses, blocks_list))
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.cost_history[1] <= sol.cost_history[0]


def test_large_initial_error_recovers_through_damping():
    rng = np.random.default_rng(77)
    blocks_list = input_chain(rng, 5, scale=0.5)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.4)),
                                            bounded_twist(rng, 0.3)), blocks_list)
    meas = [factors.PoseFactor(k, truth[k].pose, 1e-4 * np.eye(6)) for k in (0, 2, 4)]
    guesses = perturbed(rng, truth, 0.8, 0.8)
    sol = solver.solve(solver.Problem(guesses, blocks_list, meas))
    assert sol.converged
    history = np.array(sol.cost_history)
    assert np.all(np.diff(history) <= 1e-12 * np.maximum(1.0, history[:-1]))
    for est, ref in zip(sol.nodes, truth):
        assert pose_gap(est.pose, ref.pose) < 1e-5


class ChartLimit:
    """Zero-residual factor whose chart, like a rotation log near pi, cannot be
    evaluated beyond a set rotation angle."""

    indices = (1,)

    def __init__(self, limit):
        self.limit = limit
        self.raised = 0

    def evaluate(self, nodes):
        if np.linalg.norm(so3_log(nodes[1].pose.rotation)) > self.limit:
            self.raised += 1
            raise IllConditionedRotationError("outside the chart")
        return factors.FactorEval(np.zeros(1), ((1, np.zeros((1, 12))),), np.eye(1))


def chart_limited_chain():
    """A 5-node pose-measured chain whose undamped first step swings node 1
    to 0.21 rad; it turns 0.12 rad at the guess and 0.13 rad at the solution."""
    rng = np.random.default_rng(76)
    blocks_list = input_chain(rng, 5, scale=0.5)
    truth = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.4)),
                                            bounded_twist(rng, 0.3)), blocks_list)
    meas = [factors.PoseFactor(k, truth[k].pose, 1e-4 * np.eye(6)) for k in (0, 2, 4)]
    return perturbed(rng, truth, 1.5, 1.5), blocks_list, meas, truth


def test_trial_step_that_raises_is_rejected_and_damped():
    guesses, blocks_list, meas, truth = chart_limited_chain()
    guard = ChartLimit(0.165)
    sol = solver.solve(solver.Problem(guesses, blocks_list,
                                      meas + [guard]))
    assert guard.raised >= 1
    assert sol.converged
    # every rejection here is a trial that raised; each trial counts once
    assert sol.cost_evaluations == sol.iterations + guard.raised
    assert sol.coarse_cost_evaluations == 0
    for est, ref in zip(sol.nodes, truth):
        assert pose_gap(est.pose, ref.pose) < 1e-5

    # the caller's own initial guess is not a trial step: an error there raises
    with pytest.raises(IllConditionedRotationError):
        solver.solve(solver.Problem(guesses, blocks_list,
                                    meas + [ChartLimit(0.1)]))


def turned_nodes(turns):
    """Zero-bias nodes 1 s apart, node k turned by turns[k] (a rotation vector)."""
    return [prior.StateNode(float(k), exp_map(np.concatenate([np.zeros(3), phi])), np.zeros(6))
            for k, phi in enumerate(np.asarray(turns, dtype=float))]


# a turn about z or x within 1e-8 of pi, where the rotation log is refused
NEAR_PI_Z = (0.0, 0.0, np.pi - 1e-8)
NEAR_PI_X = (np.pi - 1e-8, 0.0, 0.0)


def test_start_state_log_singularity_names_its_interval():
    nodes = turned_nodes([(0.0, 0.0, 0.0), NEAR_PI_Z, NEAR_PI_Z])
    problem = solver.Problem(nodes, wnoa_chain(3, dt=1.0), gauge="fix-first")
    with pytest.raises(IllConditionedRotationError,
                       match=r"^interval 0 \(nodes 0 and 1, t = 0 to 1 s\): rotation angle"):
        solver.solve(problem)


def test_start_state_log_singularity_names_its_pose_factor_node():
    nodes = turned_nodes([(0.0, 0.0, 0.0)] * 3)
    measured = turned_nodes([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), NEAR_PI_Z])
    meas = [factors.PoseFactor(k, measured[k].pose, np.eye(6)) for k in (0, 2)]
    with pytest.raises(IllConditionedRotationError,
                       match=r"^pose error on node 2 at t = 2 s: rotation angle"):
        solver.solve(solver.Problem(nodes, wnoa_chain(3, dt=1.0), meas))


def test_start_state_log_singularity_names_its_planar_lock_node():
    nodes = turned_nodes([NEAR_PI_X] * 3)
    meas = [factors.PlanarLockFactor(k) for k in (1, 2)]
    with pytest.raises(IllConditionedRotationError,
                       match=r"^planar lock on node 1 at t = 1 s: rotation angle"):
        solver.solve(solver.Problem(nodes, wnoa_chain(3, dt=1.0), meas))


def test_each_trial_state_is_linearized_once(monkeypatch):
    guesses, blocks_list, meas, _ = chart_limited_chain()
    problem = solver.Problem(guesses, blocks_list,
                             meas + [ChartLimit(0.165)])
    calls = {"assemble": 0, "trials": 0}
    assemble, apply_step, iterate = (solver._Linearizer.assemble, solver._apply_step,
                                     solver._iterate)

    def counted_assemble(self, state):
        calls["assemble"] += 1
        return assemble(self, state)

    def counted_step(state, delta):
        calls["trials"] += 1
        return apply_step(state, delta)

    def recorded_iterate(*args):
        run = iterate(*args)
        calls["after_iterate"] = calls["assemble"]
        return run

    monkeypatch.setattr(solver._Linearizer, "assemble", counted_assemble)
    monkeypatch.setattr(solver, "_apply_step", counted_step)
    monkeypatch.setattr(solver, "_iterate", recorded_iterate)
    sol = solver.solve(problem)
    monkeypatch.undo()
    # the start and each trial state once; the covariances need no further pass
    assert sol.iterations < calls["trials"] == sol.cost_evaluations
    assert calls["assemble"] == calls["after_iterate"] == 1 + calls["trials"]

    _, d, e, _ = solver._Linearizer(problem).assemble(prior.NodeArrays.stack(sol.nodes))
    p, cross = solver._takahashi(solver._tridiag_factor(d, e, 0.0), e)
    assert np.array_equal(sol.node_covariances, p)
    assert np.array_equal(sol.cross_covariances, cross)


def test_batched_step_matches_per_node_update():
    rng = np.random.default_rng(79)
    nodes = [prior.StateNode(0.1 * k, exp_map(bounded_twist(rng, 2.0)),
                             bounded_twist(rng, 1.0)) for k in range(6)]
    # a reflected rotation exercises the determinant sign correction
    mirror = np.diag([1.0, 1.0, -1.0])
    nodes[2] = prior.StateNode(nodes[2].time,
                               Pose(nodes[2].pose.rotation @ mirror,
                                    nodes[2].pose.translation),
                               nodes[2].bias)
    delta = 0.3 * rng.normal(size=(6, 12))
    got = solver._apply_step(prior.NodeArrays.stack(nodes), delta)
    assert np.array_equal(got.index, np.arange(6))
    for k, (n, d) in enumerate(zip(nodes, delta)):
        want = (exp_map(d[:6]) @ n.pose).renormalized()
        assert np.allclose(got.rot[k], want.rotation, atol=1e-13)
        assert np.allclose(got.trans[k], want.translation, atol=1e-13)
        assert np.array_equal(got.bias[k], n.bias + d[6:])
        assert got.time[k] == n.time


def test_problem_validation():
    rng = np.random.default_rng(79)
    blocks_list = wnoa_chain(3)
    nodes = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.3)),
                                            bounded_twist(rng, 0.3)), blocks_list)

    with pytest.raises(WiringError):
        solver.Problem(nodes[:1], [])
    with pytest.raises(WiringError):
        solver.Problem(nodes, blocks_list[:1])
    with pytest.raises(WiringError):
        solver.Problem(nodes, [blocks_list[1], blocks_list[0]])
    # an entry that is not an IntervalBlocks
    with pytest.raises(WiringError, match="prior interval 1"):
        solver.Problem(nodes, [blocks_list[0], blocks_list[1].profile])
    with pytest.raises(WiringError):
        solver.Problem(nodes, blocks_list,
                       [factors.PositionFactor(5, np.zeros(3), np.eye(3))])

    class WideFactor:
        indices = (0, 2)

        def evaluate(self, nodes):
            raise AssertionError("never evaluated")

    with pytest.raises(WiringError):
        solver.Problem(nodes, blocks_list, [WideFactor()])
    with pytest.raises(HyperparameterError):
        solver.Problem(nodes, blocks_list, gauge="fixed")

    # a node index that is not an integer names the factor
    landmark = np.array([1.0, 2.0, 0.5])
    for index in (1.0, np.float64(1), True, "1"):
        with pytest.raises(WiringError, match=r"measurement factor 1 \(RangeFactor\)"):
            solver.Problem(nodes, blocks_list, [factors.PositionFactor(0, np.zeros(3), np.eye(3)),
                                                factors.RangeFactor(index, landmark, 1.0, 0.1)])
    solver.Problem(nodes, blocks_list, [factors.RangeFactor(np.int64(1), landmark, 1.0, 0.1)])
    # an interpolated factor checks its index and its blocks when it is built
    inner = factors.RangeFactor(0, landmark, 1.0, 0.1)
    for index, blocks in ((0, None), (0, blocks_list[0].profile), ("1", blocks_list[1])):
        with pytest.raises(WiringError, match="an interpolated factor needs"):
            factors.InterpolatedFactor(index, blocks, 0.1, inner)


def test_wiring_errors_surface_when_the_problem_is_built():
    """Each time mismatch raises from Problem alone, before any solve."""
    rng = np.random.default_rng(81)
    blocks_list = wnoa_chain(4)
    nodes = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.3)),
                                            bounded_twist(rng, 0.3)), blocks_list)
    off_times = "node times do not match"
    # swapped intervals, of equal length, so only their times are wrong
    with pytest.raises(WiringError, match=off_times):
        solver.Problem(nodes, [blocks_list[0], blocks_list[2], blocks_list[1]])
    # intervals built over times shifted from the nodes'
    hyper = prior.PriorHyper(np.ones(6))
    shifted = [prior.IntervalBlocks(inputs.InputProfile.zero(b.t0 + 0.05, b.t1 + 0.05), hyper)
               for b in blocks_list]
    with pytest.raises(WiringError, match=off_times):
        solver.Problem(nodes, shifted)
    # an interpolated factor on interval 0 built from interval 1's blocks
    odometry = factors.VelocityFactor(0, np.zeros(6), np.eye(6), np.ones(6, dtype=bool))
    placed = factors.InterpolatedFactor(0, blocks_list[0], blocks_list[0].t0 + 0.05, odometry)
    misplaced = factors.InterpolatedFactor(0, blocks_list[1], blocks_list[1].t0 + 0.05,
                                           odometry)
    solver.Problem(nodes, blocks_list, [placed])
    with pytest.raises(WiringError, match=off_times):
        solver.Problem(nodes, blocks_list, [placed, misplaced])


def test_out_of_order_node_times_rejected():
    rng = np.random.default_rng(80)
    blocks_list = wnoa_chain(3)
    nodes = propagate_chain(prior.StateNode(0.0, exp_map(bounded_twist(rng, 0.3)),
                                            bounded_twist(rng, 0.3)), blocks_list)
    swapped = [nodes[0], prior.StateNode(nodes[2].time, nodes[1].pose, nodes[1].bias),
               prior.StateNode(nodes[1].time, nodes[2].pose, nodes[2].bias)]
    with pytest.raises(WiringError):
        solver.Problem(swapped, blocks_list)


def test_problem_and_solution_nodes_are_node_arrays():
    rng = np.random.default_rng(83)
    blocks_list = input_chain(rng, 5)
    nodes = perturbed(rng, propagate_chain(prior.StateNode(0.0, Pose.identity(),
                                                           bounded_twist(rng, 0.5)),
                                           blocks_list), 0.05, 0.05)
    problem = solver.Problem(nodes, blocks_list, gauge="fix-first")
    assert isinstance(problem.nodes, prior.NodeArrays)
    assert np.array_equal(problem.nodes.index, np.arange(5))
    sol = solver.solve(problem)
    assert isinstance(sol.nodes, prior.NodeArrays) and len(sol.nodes) == 5
    # the StateNodes of a solution build the same trajectory as the solution's nodes
    from_rows = interpolation.Trajectory(list(sol.nodes), blocks_list, sol.node_covariances,
                                         sol.cross_covariances)
    direct = interpolation.Trajectory(sol.nodes, blocks_list, sol.node_covariances,
                                      sol.cross_covariances)
    times = [0.0, 0.1, 0.25, 0.6, 1.0]
    for a, b in zip(from_rows.query_many(times, with_covariance=True),
                    direct.query_many(times, with_covariance=True)):
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert np.array_equal(a.bias, b.bias) and np.array_equal(a.covariance, b.covariance)


@pytest.mark.parametrize("spoil, named", [
    (lambda n: prior.StateNode(n.time, n.pose, np.full(6, np.nan)), r"node 2 \(t = 0\.6 s\)"),
    (lambda n: prior.StateNode(n.time, Pose(n.pose.rotation, [np.inf, 0.0, 0.0]), n.bias),
     r"node 2 \(t = 0\.6 s\)"),
    (lambda n: prior.StateNode(np.nan, n.pose, n.bias), r"node 2 \(t = nan s\)"),
])
def test_problem_names_the_first_non_finite_start_node(spoil, named):
    rng = np.random.default_rng(89)
    blocks_list = wnoa_chain(5)
    nodes = propagate_chain(prior.StateNode(0.0, Pose.identity(), bounded_twist(rng, 0.3)),
                            blocks_list)
    nodes[2], nodes[3] = spoil(nodes[2]), spoil(nodes[3])
    with pytest.raises(DegenerateInputError, match=named):
        solver.Problem(nodes, blocks_list, gauge="fix-first")
