import numpy as np
import pytest

from ctgp import inputs, interpolation, prior
from ctgp.errors import (
    DomainError,
    HyperparameterError,
    IntervalTooLongError,
    WiringError,
)
from ctgp.liegroup import (
    Pose,
    exp_map,
    j_vec_dx,
    left_jacobian,
    left_jacobian_inv,
    log_map,
)


def bounded_twist(rng, max_norm):
    d = rng.normal(size=6)
    return rng.uniform(0.0, max_norm) * d / np.linalg.norm(d)


def build_blocks(rng, n_segments=4, seg_dur=0.2, scale=1.0, t0=0.0, **kw):
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
    return prior.IntervalBlocks(profile, hyper, **kw), profile, hyper


def random_node(rng, time=0.0, bias_scale=1.0):
    pose = exp_map(bounded_twist(rng, 1.2))
    return prior.StateNode(time, pose, bounded_twist(rng, bias_scale))


def nodes_on_prior_mean(rng, blocks):
    node_k = random_node(rng, time=blocks.t0)
    node_k1 = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
    return node_k, node_k1


def perturbed_pair(rng, blocks, scale=0.3):
    node_k, node_k1 = nodes_on_prior_mean(rng, blocks)
    pose = exp_map(bounded_twist(rng, scale)) @ node_k1.pose
    return node_k, prior.StateNode(node_k1.time, pose,
                                   node_k1.bias + bounded_twist(rng, scale))


def pair_chain(node_k, node_k1, blocks, taus, *, jacobians=False):
    """query_rows and chain over one bracketing pair, at any times of its interval.

    At the interval's ends a Trajectory answers with the node itself, so
    the interpolation chain there is reached only this way.
    """
    nodes = prior.NodeArrays.stack([node_k, node_k1])
    rows = interpolation.query_rows(blocks.arrays, taus, [blocks.row] * len(taus))
    rows = rows._replace(interval=np.zeros(len(taus), int))
    return rows, interpolation.chain(rows, nodes, prior.interval_chart(nodes),
                                     jacobians=jacobians)


def spd(rng):
    m = rng.normal(size=(12, 12)) * 0.1
    return m @ m.T + 0.05 * np.eye(12)


def output_map_at(xi, psi):
    """Perturbation map from local-state fluctuations to pose/bias ones."""
    h = np.zeros((12, 12))
    h[:6, :6] = left_jacobian(xi)
    h[6:, :6] = j_vec_dx(xi, psi)
    h[6:, 6:] = left_jacobian(xi)
    return h


def test_lambda_psi_endpoint_identities():
    rng = np.random.default_rng(10)
    blocks, _, _ = build_blocks(rng)
    lam0, psi0 = interpolation.lambda_psi(blocks, blocks.t0)
    assert np.allclose(lam0, np.eye(12), atol=1e-9)
    assert np.allclose(psi0, 0.0, atol=1e-9)
    lam1, psi1 = interpolation.lambda_psi(blocks, blocks.t1)
    assert np.allclose(lam1, 0.0, atol=1e-9)
    assert np.allclose(psi1, np.eye(12), atol=1e-9)


def test_lambda_psi_matches_wnoa_closed_form():
    rng = np.random.default_rng(11)
    hyper = prior.PriorHyper(rng.uniform(0.2, 2.0, size=6))
    profile = inputs.InputProfile.zero(0.0, 1.2)
    tau, t1 = 0.45, 1.2

    phi_tau = prior.wnoa_phi(tau)
    q_tau = prior.wnoa_q(tau, hyper.qc)
    phi_end = prior.wnoa_phi(t1 - tau)
    psi_oracle = q_tau @ phi_end.T @ prior.wnoa_q_inv(t1, hyper.qc_inv)
    lam_oracle = phi_tau - psi_oracle @ prior.wnoa_phi(t1)

    for force in (False, True):
        blocks = prior.IntervalBlocks(profile, hyper, force_general=force)
        lam, psi = interpolation.lambda_psi(blocks, tau)
        assert np.allclose(lam, lam_oracle, atol=1e-10)
        assert np.allclose(psi, psi_oracle, atol=1e-10)


def test_interpolation_on_prior_mean_matches_propagation():
    rng = np.random.default_rng(12)
    for _ in range(3):
        blocks, profile, _ = build_blocks(rng)
        node_k, node_k1 = nodes_on_prior_mean(rng, blocks)
        traj = interpolation.Trajectory([node_k, node_k1], [blocks])
        for tau in np.linspace(blocks.t0, blocks.t1, 9):
            want = prior.prior_mean_propagate(node_k, blocks, tau)
            got = traj.query(tau)
            assert np.linalg.norm(log_map(got.pose @ want.pose.inverse())) < 1e-8
            assert np.allclose(got.bias, want.bias, atol=1e-8)
            v_in, _ = profile.evaluate(tau)
            assert np.allclose(got.velocity, want.bias + v_in, atol=1e-8)


def test_endpoint_queries_return_nodes_exactly():
    rng = np.random.default_rng(13)
    blocks, profile, _ = build_blocks(rng)
    node_k, node_k1 = perturbed_pair(rng, blocks)
    # the chain itself at both ends, not a Trajectory's node hit
    rows, ch = pair_chain(node_k, node_k1, blocks, [blocks.t0, blocks.t1])
    at0, at1 = (Pose(ch.rot[i], ch.trans[i]) for i in range(2))
    assert np.linalg.norm(log_map(at0 @ node_k.pose.inverse())) < 1e-12
    assert np.allclose(ch.bias[0], node_k.bias, atol=1e-12)
    assert np.linalg.norm(log_map(at1 @ node_k1.pose.inverse())) < 1e-9
    assert np.allclose(ch.bias[1], node_k1.bias, atol=1e-9)
    v_in, _ = profile.evaluate(blocks.t1)
    assert np.allclose(ch.bias[1] + rows.input_velocity[1], node_k1.bias + v_in, atol=1e-9)


def test_velocity_jumps_preserved():
    # piecewise-constant input velocity with a step at t = 0.2
    v_a = np.array([0.8, 0, 0, 0, 0, 1.2])
    v_b = np.array([0.3, 0, 0, 0, 0, -1.5])
    zero = np.zeros(6)
    profile = inputs.InputProfile((
        inputs.InputSegment(0.0, 0.2, v_a, v_a, zero, zero),
        inputs.InputSegment(0.2, 0.4, v_b, v_b, zero, zero),
    ))
    hyper = prior.PriorHyper(np.full(6, 0.5))
    blocks = prior.IntervalBlocks(profile, hyper)
    rng = np.random.default_rng(14)
    node_k, node_k1 = perturbed_pair(rng, blocks, scale=0.1)

    eps = 1e-8
    before, after = interpolation.Trajectory([node_k, node_k1], [blocks]).query_many(
        [0.2 - eps, 0.2 + eps])
    jump = after.velocity - before.velocity
    assert np.allclose(jump, v_b - v_a, atol=1e-6)
    # the latent bias itself stays continuous across the knot
    assert np.allclose(after.bias - before.bias, 0.0, atol=1e-6)


def test_node_hit_velocity_does_not_depend_on_the_side():
    # the yaw rate steps from 0.5 to -0.5 at the middle node, t = 0.5 s
    hyper = prior.PriorHyper(np.full(6, 0.5))
    zero = np.zeros(6)
    w_a, w_b = np.array([0, 0, 0, 0, 0, 0.5]), np.array([0, 0, 0, 0, 0, -0.5])
    blocks_list = [prior.IntervalBlocks(inputs.InputProfile((
        inputs.InputSegment(t0, t0 + 0.5, w, w, zero, zero),)), hyper)
        for t0, w in ((0.0, w_a), (0.5, w_b))]
    nodes = [random_node(np.random.default_rng(15))]
    for blocks in blocks_list:
        nodes.append(prior.prior_mean_propagate(nodes[-1], blocks, blocks.t1))
    traj = interpolation.Trajectory(nodes, blocks_list)

    # within TIME_TOL of the node, below it and on it, and the last node
    below, on, last = traj.query_many([0.5 - 5e-10, 0.5, 1.0])
    assert below.time == on.time == 0.5
    # the input is right-continuous: at the node it reads the later interval
    assert np.array_equal(below.velocity, on.velocity)
    assert np.array_equal(on.velocity, nodes[1].bias + w_b)
    assert np.array_equal(last.velocity, nodes[2].bias + w_b)


def test_interpolated_covariance_matches_prior_propagation():
    # pinned start (zero covariance) and far node drawn from the prior:
    # conditioning must reproduce the propagated prior covariance at tau
    rng = np.random.default_rng(15)
    blocks, _, _ = build_blocks(rng, n_segments=3)
    node_k, node_k1 = nodes_on_prior_mean(rng, blocks)

    gamma1 = np.concatenate([np.zeros(6), node_k.bias])
    gamma1 = blocks.phi @ gamma1 + blocks.input_full
    h1 = output_map_at(gamma1[:6], gamma1[6:])
    covs = np.stack([np.zeros((12, 12)), h1 @ blocks.q_full @ h1.T])
    # a pinned node has no cross-covariance with the far one
    traj = interpolation.Trajectory([node_k, node_k1], [blocks], covs, np.zeros((1, 12, 12)))

    for tau in (blocks.t0 + 0.07, 0.31, 0.52):
        cov = traj.query(tau, with_covariance=True).covariance
        qb = blocks.at(tau)
        gamma_tau = qb.phi_from_start @ np.concatenate([np.zeros(6), node_k.bias]) + qb.input_tau
        h_tau = output_map_at(gamma_tau[:6], gamma_tau[6:])
        oracle = h_tau @ qb.q_tau @ h_tau.T
        assert np.allclose(cov, oracle, atol=1e-8, rtol=1e-8)


def test_covariance_endpoints_symmetry_and_psd():
    rng = np.random.default_rng(16)
    blocks, _, _ = build_blocks(rng)
    node_k, node_k1 = perturbed_pair(rng, blocks)

    covs = np.stack([spd(rng), spd(rng)])
    zero = np.zeros((1, 12, 12))
    # the chain itself at both ends, not a Trajectory's node hit
    rows, ch = pair_chain(node_k, node_k1, blocks, [blocks.t0, blocks.t1], jacobians=True)
    at0, at1 = interpolation.chain_covariance(rows, ch, covs, zero)
    assert np.allclose(at0, covs[0], atol=1e-9)
    assert np.allclose(at1, covs[1], atol=1e-9)

    for cross in (zero, 0.1 * covs[:1]):
        traj = interpolation.Trajectory([node_k, node_k1], [blocks], covs, cross)
        for tau in (0.11, 0.43, 0.77):
            cov = traj.query(tau, with_covariance=True).covariance
            assert np.allclose(cov, cov.T, atol=1e-10)
            eigs = np.linalg.eigvalsh(cov)
            assert eigs[0] >= -1e-10 * np.trace(cov)

    with pytest.raises(HyperparameterError):
        bad = covs.copy()
        bad[0, 0, 1] += 1.0
        interpolation.Trajectory([node_k, node_k1], [blocks], bad, zero)


def test_query_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    step = 1e-6

    def perturb(node, col, amount):
        if col < 6:
            e = np.zeros(6)
            e[col] = amount
            return prior.StateNode(node.time, exp_map(e) @ node.pose, node.bias)
        e = np.zeros(6)
        e[col - 6] = amount
        return prior.StateNode(node.time, node.pose, node.bias + e)

    for _ in range(3):
        blocks, _, _ = build_blocks(rng, n_segments=3)
        node_k, node_k1 = perturbed_pair(rng, blocks)
        for tau in (0.13, 0.41):
            _, ch = pair_chain(node_k, node_k1, blocks, [tau], jacobians=True)
            pose0, bias0, g = Pose(ch.rot[0], ch.trans[0]), ch.bias[0], ch.node_jacobian[0]
            num = np.zeros_like(g)
            for col in range(24):
                readings = []
                for sign in (1.0, -1.0):
                    nk = perturb(node_k, col, sign * step) if col < 12 else node_k
                    nk1 = (perturb(node_k1, col - 12, sign * step)
                           if col >= 12 else node_k1)
                    res = interpolation.Trajectory([nk, nk1], [blocks]).query(tau)
                    readings.append(np.concatenate([
                        log_map(res.pose @ pose0.inverse()), res.bias - bias0]))
                num[:, col] = (readings[0] - readings[1]) / (2 * step)
            assert np.allclose(g, num, atol=1e-5)


def test_interpolation_chart_guard():
    profile = inputs.InputProfile.zero(0.0, 1.0)
    hyper = prior.PriorHyper(np.ones(6))
    blocks = prior.IntervalBlocks(profile, hyper)
    spin = np.array([0, 0, 0, 0, 0, 20.0])
    node_k = prior.StateNode(0.0, Pose.identity(), spin)
    node_k1 = prior.StateNode(1.0, exp_map(np.array([0, 0, 0, 0, 0, 3.0])), np.zeros(6))
    with pytest.raises(IntervalTooLongError):
        interpolation.Trajectory([node_k, node_k1], [blocks]).query(0.5)


def test_chart_guard_names_the_lowest_interval():
    hyper = prior.PriorHyper(np.ones(6))
    blocks = [prior.IntervalBlocks(inputs.InputProfile.zero(float(k), k + 1.0), hyper)
              for k in range(3)]
    spin = np.array([0, 0, 0, 0, 0, 20.0])
    turn = exp_map(np.array([0, 0, 0, 0, 0, 3.0]))
    nodes = [prior.StateNode(0.0, Pose.identity(), np.zeros(6)),
             prior.StateNode(1.0, Pose.identity(), spin),
             prior.StateNode(2.0, turn, -spin),
             prior.StateNode(3.0, Pose.identity(), np.zeros(6))]
    traj = interpolation.Trajectory(nodes, blocks)
    # intervals 1 and 2 both leave the chart; the error names interval 1
    with pytest.raises(IntervalTooLongError,
                       match=r"interval 1 \[1, 2\] s at t = 1\.5 s"):
        traj.query_many([2.5, 1.5, 1.7])
    with pytest.raises(IntervalTooLongError, match=r"interval 2 \[2, 3\] s at t = 2\.5 s"):
        traj.query(2.5)


def test_query_many_matches_per_time_queries(monkeypatch):
    # chunks of 4 rows: the 11 off-node times span three chains
    monkeypatch.setattr(interpolation, "CHUNK_ROWS", 4)
    rng = np.random.default_rng(20)
    hyper = prior.PriorHyper(rng.uniform(0.2, 2.0, size=6))
    blocks_list, t = [], 0.0
    for _ in range(3):
        blocks, _, _ = build_blocks(rng, n_segments=3, seg_dur=0.2, t0=t)
        blocks_list.append(prior.IntervalBlocks(blocks.profile, hyper))
        t = blocks.t1
    nodes = [random_node(rng)]
    for blocks in blocks_list:
        base = prior.prior_mean_propagate(nodes[-1], blocks, blocks.t1)
        nodes.append(prior.StateNode(base.time,
                                     exp_map(bounded_twist(rng, 0.2)) @ base.pose,
                                     base.bias + bounded_twist(rng, 0.2)))

    covs = np.stack([spd(rng) for _ in nodes])
    cross = [0.1 * c for c in covs[:-1]]
    knots = [0.2, 0.4, 0.8, 1.4, 1.6]
    times = np.array([0.0, 0.6, 1.2, 1.8] + knots + [0.05, 0.33, 0.71, 1.05, 1.77, 0.13])
    for kw in ({}, {"covariances": covs, "cross_covariances": cross}):
        traj = interpolation.Trajectory(nodes, blocks_list, **kw)
        many = traj.query_many(times, with_covariance=True)
        for tau, got in zip(times, many):
            want = traj.query(tau, with_covariance=True)
            assert got.time == want.time
            assert np.allclose(got.pose.rotation, want.pose.rotation, rtol=0, atol=1e-12)
            assert np.allclose(got.pose.translation, want.pose.translation, rtol=0, atol=1e-12)
            assert np.allclose(got.bias, want.bias, rtol=0, atol=1e-12)
            assert np.allclose(got.velocity, want.velocity, rtol=0, atol=1e-12)
            if "covariances" not in kw:
                assert got.covariance is None and want.covariance is None
            else:
                scale = np.linalg.norm(want.covariance)
                assert np.linalg.norm(got.covariance - want.covariance) <= 1e-12 * scale
        # an empty ask gives empty stacks of the same row shapes
        empty = traj.query_many([], with_covariance=True)
        assert isinstance(empty, interpolation.QueryArrays)
        assert len(empty) == 0 and list(empty) == []
        assert empty.rot.shape == (0, 3, 3) and empty.velocity.shape == (0, 6)
        if "covariances" in kw:
            assert empty.covariance.shape == (0, 12, 12)
        else:
            assert empty.covariance is None


def test_trajectory_queries_and_wiring():
    rng = np.random.default_rng(18)
    blocks_a, _, hyper = build_blocks(rng, n_segments=2)
    # second interval continues from the first, sharing the hyperparameters
    t_mid = blocks_a.t1
    segs = []
    t = t_mid
    v_prev, a_prev = bounded_twist(rng, 1.0), bounded_twist(rng, 1.0)
    for _ in range(2):
        v_next, a_next = bounded_twist(rng, 1.0), bounded_twist(rng, 1.0)
        segs.append(inputs.InputSegment(t, t + 0.2, v_prev, v_next, a_prev, a_next))
        t += 0.2
        v_prev, a_prev = v_next, a_next
    blocks_b = prior.IntervalBlocks(inputs.InputProfile(tuple(segs)), hyper)

    n0 = random_node(rng, time=0.0)
    n1 = prior.prior_mean_propagate(n0, blocks_a, blocks_a.t1)
    n2 = prior.prior_mean_propagate(n1, blocks_b, blocks_b.t1)
    traj = interpolation.Trajectory([n0, n1, n2], [blocks_a, blocks_b])

    hit = traj.query(n1.time)
    assert np.array_equal(hit.pose.matrix(), n1.pose.matrix())
    assert np.allclose(hit.bias, n1.bias)

    for tau in (0.05, 0.37, 0.62):
        res = traj.query(tau)
        k = 0 if tau < t_mid else 1
        pair = [(n0, n1, blocks_a), (n1, n2, blocks_b)][k]
        want = interpolation.Trajectory(pair[:2], pair[2:]).query(tau)
        assert np.linalg.norm(log_map(res.pose @ want.pose.inverse())) < 1e-12

    # mean continuity across the shared node
    eps = 1e-7
    left = traj.query(t_mid - eps)
    right = traj.query(t_mid + eps)
    assert np.linalg.norm(log_map(left.pose @ right.pose.inverse())) < 1e-5

    many = traj.query_many([0.1, 0.5])
    assert [r.time for r in many] == [0.1, 0.5]

    with pytest.raises(DomainError):
        traj.query(traj.end + 0.5)
    with pytest.raises(WiringError):
        interpolation.Trajectory([n0, n2], [blocks_a, blocks_b])
    with pytest.raises(WiringError):
        interpolation.Trajectory([n0, n2], [blocks_a])


def test_trajectory_covariance_query_matches_standalone_calls():
    rng = np.random.default_rng(19)
    blocks, _, _ = build_blocks(rng, n_segments=3)
    node_k, node_k1 = perturbed_pair(rng, blocks)

    covs = np.stack([spd(rng), spd(rng)])
    taus = [0.13, 0.4, 0.55]
    rows, ch = pair_chain(node_k, node_k1, blocks, taus, jacobians=True)
    for cross in (np.zeros((1, 12, 12)), 0.1 * covs[:1]):
        traj = interpolation.Trajectory([node_k, node_k1], [blocks],
                                        covariances=covs, cross_covariances=cross)
        want = interpolation.chain_covariance(rows, ch, covs, cross)
        for i, tau in enumerate(taus):
            got = traj.query(tau, with_covariance=True)
            assert got.time == tau
            assert np.array_equal(got.pose.rotation, ch.rot[i])
            assert np.array_equal(got.pose.translation, ch.trans[i])
            assert np.array_equal(got.bias, ch.bias[i])
            assert np.array_equal(got.velocity, ch.bias[i] + rows.input_velocity[i])
            assert np.array_equal(got.covariance, want[i])

    # node covariances are validated when the trajectory is built
    bad = covs.copy()
    bad[1] = -bad[1]
    with pytest.raises(HyperparameterError):
        interpolation.Trajectory([node_k, node_k1], [blocks], covariances=bad,
                                 cross_covariances=np.zeros((1, 12, 12)))
    # and so are the cross-covariances
    for bad_cross in (np.zeros((1, 6, 6)), np.full((1, 12, 12), np.nan)):
        with pytest.raises(HyperparameterError, match="cross-covariances"):
            interpolation.Trajectory([node_k, node_k1], [blocks], covariances=covs,
                                     cross_covariances=bad_cross)
    # and both come together or not at all
    for kw in ({"covariances": covs}, {"cross_covariances": np.zeros((1, 12, 12))}):
        with pytest.raises(WiringError, match="together"):
            interpolation.Trajectory([node_k, node_k1], [blocks], **kw)

