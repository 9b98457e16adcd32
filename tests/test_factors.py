import dataclasses

import numpy as np
import pytest

from ctgp import factors, inputs, prior
from ctgp.errors import (
    DegenerateInputError,
    HyperparameterError,
    SingularGeometryError,
    WiringError,
)
from ctgp.liegroup import Pose, exp_map, log_map, so3_exp


def bounded_twist(rng, max_norm):
    d = rng.normal(size=6)
    return rng.uniform(0.0, max_norm) * d / np.linalg.norm(d)


def build_blocks(rng, n_segments=3, seg_dur=0.2, scale=1.0, t0=0.0):
    t = t0
    segs = []
    v_prev, a_prev = bounded_twist(rng, scale), bounded_twist(rng, scale)
    for _ in range(n_segments):
        v_next, a_next = bounded_twist(rng, scale), bounded_twist(rng, scale)
        segs.append(inputs.InputSegment(t, t + seg_dur, v_prev, v_next, a_prev, a_next))
        t += seg_dur
        v_prev, a_prev = v_next, a_next
    profile = inputs.InputProfile(tuple(segs))
    hyper = prior.PriorHyper(rng.uniform(0.2, 2.0, size=6))
    return prior.IntervalBlocks(profile, hyper), profile


def random_node(rng, time=0.0, bias_scale=1.0):
    return prior.StateNode(time, exp_map(bounded_twist(rng, 1.2)),
                           bounded_twist(rng, bias_scale))


def perturb_node(node, col, amount):
    e = np.zeros(6)
    e[col % 6] = amount
    if col < 6:
        return prior.StateNode(node.time, exp_map(e) @ node.pose, node.bias)
    return prior.StateNode(node.time, node.pose, node.bias + e)


def assert_jacobians_match_fd(evaluate, nodes, atol=1e-5, step=1e-6):
    """Check every analytic Jacobian block against central differences."""
    base = evaluate(nodes)
    assert base.cost() >= 0.0
    for idx, jac in base.jacobians:
        num = np.zeros_like(jac)
        for col in range(12):
            errs = []
            for sign in (1.0, -1.0):
                pert = list(nodes)
                pert[idx] = perturb_node(nodes[idx], col, sign * step)
                errs.append(evaluate(pert).error)
            num[:, col] = (errs[0] - errs[1]) / (2 * step)
        assert np.allclose(jac, num, atol=atol), f"node {idx} Jacobian mismatch"


def test_prior_factor_zero_on_propagated_nodes():
    rng = np.random.default_rng(20)
    for _ in range(5):
        blocks, _ = build_blocks(rng)
        node_k = random_node(rng)
        node_k1 = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
        ev = factors.prior_factor_error(node_k, node_k1, blocks)
        assert np.linalg.norm(ev.error) < 1e-6
        assert np.allclose(ev.information, blocks.q_full_inv)


def test_prior_factor_wnoa_consistency():
    rng = np.random.default_rng(21)
    dt = 0.3
    blocks = prior.IntervalBlocks(inputs.InputProfile.zero(0.0, dt),
                                  prior.PriorHyper(np.ones(6)))
    node_k = random_node(rng)
    node_k1 = prior.StateNode(dt, exp_map(dt * node_k.bias) @ node_k.pose,
                              node_k.bias)
    ev = factors.prior_factor_error(node_k, node_k1, blocks)
    assert np.linalg.norm(ev.error) < 1e-9


def test_prior_factor_jacobians_match_fd():
    rng = np.random.default_rng(22)
    for _ in range(50):
        blocks, _ = build_blocks(rng, n_segments=2)
        node_k = random_node(rng)
        base = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
        node_k1 = prior.StateNode(base.time,
                                  exp_map(bounded_twist(rng, 0.4)) @ base.pose,
                                  base.bias + bounded_twist(rng, 0.4))
        assert_jacobians_match_fd(
            lambda nodes: factors.prior_factor_error(nodes[0], nodes[1], blocks),
            [node_k, node_k1])


def test_prior_factor_wiring_error():
    rng = np.random.default_rng(24)
    blocks, _ = build_blocks(rng)
    node_k = random_node(rng)
    node_late = prior.StateNode(blocks.t1 + 0.5, node_k.pose, node_k.bias)
    with pytest.raises(WiringError):
        factors.prior_factor_error(node_k, node_late, blocks)


def test_range_factor_examples():
    node = prior.StateNode(0.0, Pose.identity(), np.zeros(6))
    ev = factors.range_factor_error(node, np.array([3.0, 4.0, 0.0]), 5.0, 0.01)
    assert abs(ev.error[0]) < 1e-12
    ev = factors.range_factor_error(node, np.array([3.0, 4.0, 0.0]), 6.0, 0.01)
    assert abs(ev.error[0] - 1.0) < 1e-12
    assert np.allclose(ev.information, [[100.0]])
    with pytest.raises(SingularGeometryError):
        factors.range_factor_error(node, np.zeros(3), 0.0, 0.01)
    with pytest.raises(HyperparameterError):
        factors.range_factor_error(node, np.ones(3), 1.0, 0.0)
    # the variance is validated once, at construction
    with pytest.raises(HyperparameterError):
        factors.RangeFactor(0, np.ones(3), 1.0, -1.0)


def test_batched_range_error_names_the_node_and_time():
    rng = np.random.default_rng(35)
    landmark = np.array([1.0, -2.0, 0.5])
    nodes = [random_node(rng, time=0.1 * k) for k in range(5)]
    for k in (4, 2):  # two nodes at the landmark; the error names the first
        nodes[k] = prior.StateNode(nodes[k].time, Pose(nodes[k].pose.rotation, landmark),
                                   nodes[k].bias)
    group = [factors.RangeFactor(k, landmark, 1.0, 0.01) for k in (4, 0, 2, 3)]
    (batch,), rest = factors.batch_factors(group)
    assert rest == []
    with pytest.raises(SingularGeometryError, match=r"node 2 at t = 0\.2 s"):
        batch.linearize(factors.NodeArrays.stack(nodes))
    with pytest.raises(SingularGeometryError, match=r"node 4 at t = 0\.4 s"):
        group[0].evaluate(nodes)


def test_range_factor_jacobian_matches_fd():
    rng = np.random.default_rng(25)
    for _ in range(50):
        node = random_node(rng)
        landmark = node.pose.translation + rng.normal(scale=3.0, size=3)
        assert_jacobians_match_fd(
            lambda nodes: factors.range_factor_error(nodes[0], landmark, 2.0, 0.05),
            [node], atol=1e-6)


def test_pose_factor_examples_and_fd():
    rng = np.random.default_rng(26)
    node = random_node(rng)
    cov = np.diag(rng.uniform(0.01, 0.1, size=6))
    ev = factors.pose_factor_error(node, node.pose, cov)
    assert np.linalg.norm(ev.error) < 1e-12

    delta = 1e-4 * rng.normal(size=6)
    ev = factors.pose_factor_error(node, exp_map(delta) @ node.pose, cov)
    assert np.allclose(ev.error, delta, atol=1e-7)

    for _ in range(50):
        node = random_node(rng)
        measured = exp_map(bounded_twist(rng, 0.8)) @ node.pose
        assert_jacobians_match_fd(
            lambda nodes: factors.pose_factor_error(nodes[0], measured, cov),
            [node])

    with pytest.raises(HyperparameterError):
        factors.pose_factor_error(node, node.pose, -np.eye(6))
    # the covariance is validated once, at construction
    with pytest.raises(HyperparameterError):
        factors.PoseFactor(0, node.pose, -np.eye(6))
    with pytest.raises(HyperparameterError):
        factors.PoseFactor(0, node.pose, np.eye(3))


def test_position_factor_examples_and_fd():
    rng = np.random.default_rng(27)
    node = random_node(rng)
    cov = 0.01 * np.eye(3)
    ev = factors.position_factor_error(node, node.pose.translation, cov)
    assert np.linalg.norm(ev.error) < 1e-12
    ev = factors.position_factor_error(
        node, node.pose.translation + [1e-3, 0, 0], cov)
    assert np.allclose(ev.error, [1e-3, 0, 0], atol=1e-15)

    for _ in range(50):
        node = random_node(rng)
        measured = node.pose.translation + rng.normal(scale=0.3, size=3)
        assert_jacobians_match_fd(
            lambda nodes: factors.position_factor_error(nodes[0], measured, cov),
            [node], atol=1e-6)

    # the covariance is validated once, at construction
    with pytest.raises(HyperparameterError):
        factors.PositionFactor(0, np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(HyperparameterError):
        factors.PositionFactor(0, np.zeros(3), np.eye(6))
    with pytest.raises(HyperparameterError):
        factors.PositionFactor(0, np.zeros(3), np.array([[1.0, 0.5, 0.0],
                                                         [0.0, 1.0, 0.0],
                                                         [0.0, 0.0, 1.0]]))


def test_velocity_factor_examples_and_fd():
    rng = np.random.default_rng(28)
    node = random_node(rng)
    mask = np.array([True, False, False, False, False, True])
    cov = np.diag([5.45e-4, 0.1, 0.1, 0.1, 0.1, 1.01e-3])

    ev = factors.velocity_factor_error(node, node.bias, cov, mask)
    assert ev.error.shape == (2,)
    assert np.linalg.norm(ev.error) < 1e-12

    v_in = bounded_twist(rng, 1.0)
    ev = factors.velocity_factor_error(node, node.bias + v_in, cov, mask,
                                       input_velocity=v_in)
    assert np.linalg.norm(ev.error) < 1e-12

    for _ in range(50):
        node = random_node(rng)
        measured = node.bias + rng.normal(scale=0.1, size=6)
        assert_jacobians_match_fd(
            lambda nodes: factors.velocity_factor_error(
                nodes[0], measured, cov, mask, input_velocity=v_in),
            [node], atol=1e-6)

    with pytest.raises(DegenerateInputError):
        factors.velocity_factor_error(node, node.bias, cov, np.zeros(6, dtype=bool))

    # the mask and the covariance are validated once, at construction
    with pytest.raises(DegenerateInputError):
        factors.VelocityFactor(0, node.bias, cov, np.zeros(6, dtype=bool))
    with pytest.raises(DegenerateInputError):
        factors.VelocityFactor(0, node.bias, cov, np.ones(3, dtype=bool))
    with pytest.raises(HyperparameterError):
        factors.VelocityFactor(0, node.bias, 0.1 * np.eye(3), mask)
    with pytest.raises(HyperparameterError):
        factors.VelocityFactor(0, node.bias, -cov, mask)
    # a full covariance is restricted to the mask; a masked one is taken as is
    full = factors.VelocityFactor(0, node.bias, cov, mask)
    masked = factors.VelocityFactor(0, node.bias, np.diag([5.45e-4, 1.01e-3]), mask)
    assert np.allclose(full.information, masked.information)


def test_interpolated_factor_endpoints():
    rng = np.random.default_rng(29)
    blocks, _ = build_blocks(rng)
    node_k = random_node(rng)
    node_k1 = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
    landmark = node_k.pose.translation + np.array([1.0, 2.0, 0.5])
    inner = lambda n: factors.range_factor_error(n, landmark, 2.0, 0.05)

    at0 = factors.interpolated_factor(node_k, node_k1, blocks, blocks.t0, inner)
    direct = inner(node_k)
    assert np.allclose(at0.jacobians[0][1], direct.jacobians[0][1], atol=1e-9)
    assert np.allclose(at0.jacobians[1][1], 0.0, atol=1e-9)

    at1 = factors.interpolated_factor(node_k, node_k1, blocks, blocks.t1, inner)
    direct = inner(node_k1)
    assert np.allclose(at1.jacobians[1][1], direct.jacobians[0][1], atol=1e-8)
    assert np.allclose(at1.jacobians[0][1], 0.0, atol=1e-8)


def test_interpolated_factor_jacobians_match_fd():
    rng = np.random.default_rng(30)
    for _ in range(10):
        blocks, profile = build_blocks(rng)
        node_k = random_node(rng)
        base = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
        node_k1 = prior.StateNode(base.time,
                                  exp_map(bounded_twist(rng, 0.3)) @ base.pose,
                                  base.bias + bounded_twist(rng, 0.3))
        tau = rng.uniform(blocks.t0 + 0.05, blocks.t1 - 0.05)
        landmark = node_k.pose.translation + rng.normal(scale=2.0, size=3)
        v_in_tau = profile.evaluate(tau)[0]
        mask = np.ones(6, dtype=bool)
        inners = [
            lambda n: factors.range_factor_error(n, landmark, 2.5, 0.05),
            lambda n: factors.velocity_factor_error(
                n, np.zeros(6), 0.01 * np.eye(6), mask, input_velocity=v_in_tau),
        ]
        for inner in inners:
            assert_jacobians_match_fd(
                lambda nodes: factors.interpolated_factor(
                    nodes[0], nodes[1], blocks, tau, inner),
                [node_k, node_k1])


def test_planar_lock_factor():
    rng = np.random.default_rng(31)
    yaw = so3_exp(np.array([0.0, 0.0, 0.7]))
    flat = prior.StateNode(0.0, Pose(yaw, np.array([2.0, -1.0, 0.0])),
                           np.array([0.8, 0.0, 0.0, 0.0, 0.0, 0.3]))
    lock = factors.PlanarLockFactor(0)
    ev = lock.evaluate([flat])
    assert np.linalg.norm(ev.error) < 1e-12
    assert np.allclose(ev.information, 1e8 * np.eye(7))

    tilted = prior.StateNode(0.0,
                             Pose(so3_exp([0.02, -0.01, 0.7]), [2.0, -1.0, 0.05]),
                             np.array([0.8, 0.1, -0.2, 0.03, 0.04, 0.3]))
    ev = lock.evaluate([tilted])
    assert abs(ev.error[0] + 0.05) < 1e-12
    assert np.allclose(ev.error[3:], -np.array([0.1, -0.2, 0.03, 0.04]))

    for _ in range(20):
        node = random_node(rng, bias_scale=0.5)
        assert_jacobians_match_fd(lambda nodes: lock.evaluate(nodes), [node])


def test_planar_lock_factor_bias_only():
    rng = np.random.default_rng(33)
    lock = factors.PlanarLockFactor(0, information=1e6, bias_only=True)
    node = prior.StateNode(0.0, Pose(so3_exp([0.02, -0.01, 0.7]), [2.0, -1.0, 0.05]),
                           np.array([0.8, 0.1, -0.2, 0.03, 0.04, 0.3]))
    ev = lock.evaluate([node])
    assert ev.error.shape == (4,)
    assert np.allclose(ev.error, -np.array([0.1, -0.2, 0.03, 0.04]))
    assert np.allclose(ev.information, 1e6 * np.eye(4))
    for _ in range(10):
        assert_jacobians_match_fd(lambda nodes: lock.evaluate(nodes),
                                  [random_node(rng, bias_scale=0.5)])
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(HyperparameterError):
            factors.PlanarLockFactor(0, information=bad, bias_only=True)


def test_anchor_factor():
    rng = np.random.default_rng(32)
    anchor_node = random_node(rng)
    anchor = factors.AnchorFactor(0, anchor_node.pose, anchor_node.bias,
                                  1e-6 * np.eye(6),
                                  np.diag([1e-2] * 3 + [1e3] * 3))
    ev = anchor.evaluate([anchor_node])
    assert np.linalg.norm(ev.error) < 1e-12

    for _ in range(20):
        node = random_node(rng)
        assert_jacobians_match_fd(lambda nodes: anchor.evaluate(nodes), [node])

    # covariances are validated once, at construction
    not_pd = np.diag([1.0] * 5 + [-1.0])
    with pytest.raises(HyperparameterError):
        factors.AnchorFactor(0, anchor_node.pose, anchor_node.bias, np.eye(6), not_pd)
    with pytest.raises(HyperparameterError):
        factors.AnchorFactor(0, anchor_node.pose, anchor_node.bias, np.eye(3), np.eye(6))


def test_prior_factor_batch_matches_scalar():
    rng = np.random.default_rng(34)
    hyper = prior.PriorHyper(rng.uniform(0.2, 2.0, size=6))
    nodes, blocks_list = [], []
    node = random_node(rng)
    t = 0.0
    for _ in range(6):
        blocks, _ = build_blocks(rng, n_segments=2, t0=t)
        blocks = prior.IntervalBlocks(blocks.profile, hyper)
        base = prior.prior_mean_propagate(
            prior.StateNode(t, node.pose, node.bias), blocks, blocks.t1)
        nodes.append(prior.StateNode(t, node.pose, node.bias))
        node = prior.StateNode(base.time,
                               exp_map(bounded_twist(rng, 0.2)) @ base.pose,
                               base.bias + bounded_twist(rng, 0.2))
        blocks_list.append(blocks)
        t = blocks.t1
    nodes.append(node)

    batch = factors.prior_factor_batch(nodes, blocks_list)
    for k, blocks in enumerate(blocks_list):
        ev = factors.prior_factor_error(nodes[k], nodes[k + 1], blocks)
        assert np.allclose(batch["error"][k], ev.error, atol=1e-12)
        assert np.allclose(batch["info"][k], ev.information, atol=1e-12)
        assert np.allclose(batch["j_k"][k], ev.jacobians[0][1], atol=1e-12)
        assert np.allclose(batch["j_k1"][k], ev.jacobians[1][1], atol=1e-12)

    with pytest.raises(WiringError):
        factors.prior_factor_batch(nodes[:-1], blocks_list)


def test_bound_factor_classes_match_functions():
    rng = np.random.default_rng(33)
    blocks, profile = build_blocks(rng)
    n0 = random_node(rng)
    n1 = prior.prior_mean_propagate(n0, blocks, blocks.t1)
    nodes = [n0, n1]

    tau = 0.31
    inner = factors.RangeFactor(0, np.array([1.0, 2.0, 0.3]), 2.0, 0.05)
    itf = factors.InterpolatedFactor(0, blocks, tau, inner)
    want = factors.interpolated_factor(n0, n1, blocks, tau, inner.evaluate_node)
    got = itf.evaluate(nodes)
    assert np.allclose(got.error, want.error)
    assert np.allclose(got.jacobians[0][1], want.jacobians[0][1])


def test_factors_compare_by_identity_and_hash():
    rng = np.random.default_rng(34)
    blocks, _ = build_blocks(rng)
    # equal fields, held in distinct arrays
    inners = [factors.RangeFactor(0, np.array([1.0, 2.0, 0.3]), 2.0, 0.05) for _ in range(2)]
    a, b = (factors.InterpolatedFactor(0, blocks, 0.31, inner) for inner in inners)
    for x, y in (inners, (a, b)):
        assert x == x and not x != x
        assert x != y and not x == y
    assert len({*inners, a, b, a}) == 4
    # frozen, like every other factor type: nothing is cached on it
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.tau = 0.32


def test_interpolated_factor_rejects_a_callable_inner():
    rng = np.random.default_rng(35)
    blocks, _ = build_blocks(rng)
    inner = factors.RangeFactor(0, np.array([1.0, 2.0, 0.3]), 2.0, 0.05)
    for bad in (inner.evaluate_node,
                lambda n: factors.range_factor_error(n, inner.landmark, 2.0, 0.05),
                blocks):
        with pytest.raises(WiringError, match="inner must be one of"):
            factors.InterpolatedFactor(0, blocks, 0.31, bad)


_ALL = np.ones(6, dtype=bool)


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: factors.VelocityFactor(2, 0.5, np.eye(6), _ALL), "measured",
                 id="velocity-scalar"),
    pytest.param(lambda: factors.VelocityFactor(2, np.zeros(6), np.eye(6), _ALL, np.zeros(3)),
                 "input_velocity", id="velocity-input-3"),
    pytest.param(lambda: factors.PositionFactor(0, np.zeros(2), np.eye(3)), "measured",
                 id="position-2"),
    pytest.param(lambda: factors.PositionFactor(0, np.array([0.0, np.nan, 1.0]), np.eye(3)),
                 "measured", id="position-nan"),
    pytest.param(lambda: factors.RangeFactor(0, np.zeros(2), 1.0, 0.1), "landmark",
                 id="range-landmark-2"),
    pytest.param(lambda: factors.RangeFactor(0, np.ones(3), np.nan, 0.1), "measured",
                 id="range-nan"),
    pytest.param(lambda: factors.RangeFactor(0, np.ones(3), "far", 0.1), "measured",
                 id="range-text"),
    pytest.param(lambda: factors.RangeFactor(0, np.ones(3), 1.0, None), "variance",
                 id="range-variance-none"),
    pytest.param(lambda: factors.AnchorFactor(0, Pose.identity(), np.zeros(3), np.eye(6),
                                              np.eye(6)), "bias", id="anchor-bias-3"),
    pytest.param(lambda: factors.AnchorFactor(0, Pose.identity(), np.full(6, np.inf),
                                              np.eye(6), np.eye(6)), "bias", id="anchor-inf"),
    pytest.param(lambda: factors.AnchorFactor(0, None, np.zeros(6), np.eye(6), np.eye(6)),
                 "pose", id="anchor-pose-none"),
    pytest.param(lambda: factors.AnchorFactor(0, Pose(np.eye(3), np.zeros(2)), np.zeros(6),
                                              np.eye(6), np.eye(6)), "pose",
                 id="anchor-translation-2"),
    pytest.param(lambda: factors.PoseFactor(0, None, np.eye(6)), "measured",
                 id="pose-none"),
    pytest.param(lambda: factors.PoseFactor(0, Pose(np.full((3, 3), np.nan), np.zeros(3)),
                                            np.eye(6)), "measured", id="pose-rotation-nan"),
    pytest.param(lambda: factors.PoseFactor(0, Pose(np.eye(2), np.zeros(3)), np.eye(6)),
                 "measured", id="pose-rotation-2x2"),
    pytest.param(lambda: factors.InterpolatedFactor(
        0, prior.IntervalBlocks(inputs.InputProfile.zero(0.0, 1.0),
                                prior.PriorHyper(np.ones(6))),
        "a", factors.PositionFactor(0, np.zeros(3), np.eye(3))), "tau",
                 id="interpolated-tau-text"),
])
def test_factor_constructors_reject_malformed_values(build, field):
    with pytest.raises(DegenerateInputError, match=f"Factor field {field} must be finite"):
        build()


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: factors.PlanarLockFactor(0, []), "planar lock information",
                 id="planar-lock-empty"),
    pytest.param(lambda: factors.PositionFactor(0, np.zeros(3), "tight"),
                 "position covariance is not numeric", id="position-covariance-text"),
])
def test_factor_constructors_reject_non_numeric_weights(build, match):
    with pytest.raises(HyperparameterError, match=match):
        build()


def test_factor_values_are_copies_of_the_callers_arrays():
    measured, landmark = np.zeros(3), np.ones(3)
    position = factors.PositionFactor(0, measured, np.eye(3))
    rng = factors.RangeFactor(0, landmark, 2, 0.1)
    measured[0] = landmark[0] = 5.0
    assert not position.measured.any() and np.array_equal(rng.landmark, np.ones(3))
    assert type(rng.measured) is float
