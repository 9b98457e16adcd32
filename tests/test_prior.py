import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

from ctgp import inputs, prior
from ctgp.errors import (DegenerateInputError, DomainError, HyperparameterError,
                         IntervalTooLongError, WiringError)
from ctgp.liegroup import Pose, curlywedge, exp_map


def rk4_transition(b, c, t0, t1, n_steps):
    """Dense RK4 integration of dPhi/dt = A(t) Phi, the transition oracle."""
    h = (t1 - t0) / n_steps
    phi = np.eye(b.shape[0])

    def a_of(t):
        return b + c * t

    t = t0
    for _ in range(n_steps):
        k1 = a_of(t) @ phi
        k2 = a_of(t + h / 2) @ (phi + h / 2 * k1)
        k3 = a_of(t + h / 2) @ (phi + h / 2 * k2)
        k4 = a_of(t + h) @ (phi + h * k3)
        phi = phi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return phi


def random_twist_bounded(rng, max_norm):
    """Twist with norm-bounded draw (direction uniform, magnitude uniform)."""
    d = rng.normal(size=6)
    d /= np.linalg.norm(d)
    return rng.uniform(0.0, max_norm) * d


def random_segment(rng, duration=None, scale=1.0):
    dur = duration if duration is not None else rng.uniform(0.05, 0.5)
    t0 = rng.uniform(0.0, 2.0)
    vals = [random_twist_bounded(rng, scale) for _ in range(4)]
    return inputs.InputSegment(t0, t0 + dur, vals[0], vals[1], vals[2], vals[3])


def random_hyper(rng):
    d = rng.uniform(0.2, 2.0, size=6)
    return prior.PriorHyper(d)


def vx(f, w):
    return np.array([f, 0, 0, 0, 0, w])


def test_expm_matches_scipy():
    rng = np.random.default_rng(0)
    mats = rng.normal(scale=0.8, size=(12, 12, 12))
    ours = prior.expm_ss(mats)
    for i in range(len(mats)):
        assert np.allclose(ours[i], scipy.linalg.expm(mats[i]), atol=1e-12)
    single = rng.normal(scale=3.0, size=(8, 8))
    assert np.allclose(prior.expm_ss(single), scipy.linalg.expm(single), atol=1e-11)


@pytest.mark.parametrize("degree,theta", list(prior._PADE_THETA)
                         + [(13, prior._PADE13_THETA)])
def test_expm_pade_degree_is_exact_on_both_sides_of_theta(degree, theta):
    # the oracle is a 30-digit exponential: on one 6x6 draw just above
    # theta_13, scipy.linalg.expm itself is 1.1e-13 off while expm_ss is 9e-16
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(degree)
    for n, draws in ((6, 3), (12, 3), (25, 1)):
        for factor in (0.97, 1.03):
            for _ in range(draws):
                a = rng.normal(size=(n, n))
                a *= factor * theta / np.max(np.sum(np.abs(a), axis=0))
                exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
                scale = np.max(np.abs(exact))
                assert np.max(np.abs(prior.expm_ss(a) - exact)) / scale < 1e-13
                assert np.max(np.abs(scipy.linalg.expm(a) - exact)) / scale < 1e-12


def test_system_matrix_coeffs_structure():
    rng = np.random.default_rng(1)
    seg = random_segment(rng)
    co = prior.system_matrix_coeffs(seg)
    assert np.array_equal(co.b[:6, 6:], np.eye(6))
    assert np.array_equal(co.c[:6, 6:], np.zeros((6, 6)))

    # constant angular velocity: B carries +/- half curlywedge, C vanishes
    v = np.array([0, 0, 0, 0, 0, 1.0])
    seg = inputs.InputSegment(0.0, 0.5, v, v, np.zeros(6), np.zeros(6))
    co = prior.system_matrix_coeffs(seg)
    assert np.allclose(co.b[:6, :6], 0.5 * curlywedge(v))
    assert np.allclose(co.b[6:, 6:], -0.5 * curlywedge(v))
    assert np.allclose(co.c, 0.0)

    # ramp 0 -> w over d: C top-left is half curlywedge(w) / d
    w = np.array([0.3, 0, 0, 0, 0, 0.7])
    seg = inputs.InputSegment(0.0, 0.4, np.zeros(6), w, np.zeros(6), np.zeros(6))
    co = prior.system_matrix_coeffs(seg)
    assert np.allclose(co.c[:6, :6], 0.5 * curlywedge(w) / 0.4)


def magnus_rk4_rel(seg):
    co = prior.system_matrix_coeffs(seg)
    ours = prior.magnus_transition(co, 0.0, co.duration)
    oracle = rk4_transition(co.b, co.c, 0.0, co.duration, max(20, int(co.duration / 1e-4)))
    return np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)


def test_magnus_transition_matches_rk4_at_input_tick():
    # the 1e-6 RK4 contract at the 10 Hz input tick
    rng = np.random.default_rng(2)
    for _ in range(10):
        seg = random_segment(rng, duration=rng.uniform(0.02, 0.1), scale=2.0)
        assert magnus_rk4_rel(seg) < 1e-6


def test_magnus_transition_bounded_at_half_second_window():
    # the same 1e-6 RK4 contract holds on windows up to 0.5 s
    rng = np.random.default_rng(2)
    worst = max(magnus_rk4_rel(random_segment(rng, scale=2.0)) for _ in range(20))
    assert worst < 1e-6


def test_magnus_truncation_is_fifth_order():
    # windows of one fixed segment, so the generator's slope C stays put while
    # h halves; a fixed count of sixth-order steps leaves an error of order
    # h^7 (fit 7.2), and an adaptive step count flattens the fit below 6.
    # The windows stay within 0.5 s, which magnus_transition takes whole.
    rng = np.random.default_rng(3)
    vals = [random_twist_bounded(rng, 2.0) for _ in range(4)]
    windows = np.array([0.5, 0.25, 0.125, 0.0625])
    co = prior.system_matrix_coeffs(inputs.InputSegment(0.0, windows[0], *vals))
    errs = []
    for h in windows:
        ours = prior.magnus_transition(co, 0.0, h)
        oracle = rk4_transition(co.b, co.c, 0.0, h, max(20, int(h / 1e-4)))
        errs.append(np.linalg.norm(ours - oracle) / np.linalg.norm(oracle))
    slope = np.polyfit(np.log(windows), np.log(errs), 1)[0]
    assert slope > 6


def test_magnus_transition_keeps_the_contract_past_half_a_second():
    # a 2 s span is cut into four 0.5 s windows; three Magnus steps over the
    # whole span miss the oracle by 4.3e-6
    rng = np.random.default_rng(3)
    vals = [random_twist_bounded(rng, 2.0) for _ in range(4)]
    co = prior.system_matrix_coeffs(inputs.InputSegment(0.0, 2.0, *vals))
    ours = prior.magnus_transition(co, 0.0, 2.0)
    oracle = rk4_transition(co.b, co.c, 0.0, 2.0, 20000)
    assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) < 1e-6


def test_magnus_transition_partial_and_domain():
    rng = np.random.default_rng(3)
    seg = random_segment(rng, duration=0.4)
    co = prior.system_matrix_coeffs(seg)
    part = prior.magnus_transition(co, 0.1, 0.3)
    oracle = rk4_transition(co.b, co.c, 0.1, 0.3, 2000)
    # a wrong local-time offset would miss by ~1e-3; slack covers truncation only
    assert np.allclose(part, oracle, atol=5e-6)
    with pytest.raises(DomainError):
        prior.magnus_transition(co, -0.1, 0.3)
    with pytest.raises(DomainError):
        prior.magnus_transition(co, 0.0, 1.0)


def test_hyper_validation():
    with pytest.raises(HyperparameterError):
        prior.PriorHyper(np.zeros(6))
    with pytest.raises(HyperparameterError):
        prior.PriorHyper(-np.ones(6))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(HyperparameterError):
        prior.PriorHyper(bad)
    for odd in ("diag", {"x": 1.0}, None):
        with pytest.raises(HyperparameterError):
            prior.PriorHyper(odd)
    with pytest.raises(HyperparameterError, match="finite"):
        prior.PriorHyper([np.inf] * 6)
    h = prior.PriorHyper(np.full(6, 2.0))
    assert np.allclose(h.qc, 2.0 * np.eye(6))


def build_blocks(rng, n_segments=4, seg_dur=0.2, scale=1.0, hyper=None):
    t = 0.0
    segs = []
    v_prev = scale * rng.uniform(-1, 1, size=6)
    a_prev = scale * rng.uniform(-1, 1, size=6)
    for _ in range(n_segments):
        v_next = scale * rng.uniform(-1, 1, size=6)
        a_next = scale * rng.uniform(-1, 1, size=6)
        segs.append(inputs.InputSegment(t, t + seg_dur, v_prev, v_next, a_prev, a_next))
        t += seg_dur
        v_prev, a_prev = v_next, a_next
    profile = inputs.InputProfile(tuple(segs))
    hyper = hyper or random_hyper(rng)
    return prior.IntervalBlocks(profile, hyper), profile, hyper


def test_interval_transition_is_ordered_segment_product():
    rng = np.random.default_rng(4)
    blocks, profile, _ = build_blocks(rng)
    product = np.eye(12)
    for seg in profile.segments:
        co = prior.system_matrix_coeffs(seg)
        product = prior.magnus_transition(co, 0.0, co.duration) @ product
    assert np.allclose(blocks.phi, product, atol=1e-12)


def test_interval_transition_semigroup_at_queries():
    rng = np.random.default_rng(5)
    blocks, profile, _ = build_blocks(rng)
    knots = [s.t0 for s in profile.segments[1:]]
    for tau in (blocks.t0, 0.13, 0.2, 0.47, 0.61, *knots, blocks.t1):
        qb = blocks.at(tau)
        assert np.allclose(qb.phi_to_end @ qb.phi_from_start, blocks.phi, atol=1e-10)
    # the ends are the identity and zero at t0 and the full products at t1
    start, end = blocks.at(blocks.t0), blocks.at(blocks.t1)
    assert np.array_equal(start.phi_from_start, np.eye(12))
    assert np.array_equal(start.q_tau, np.zeros((12, 12)))
    assert np.array_equal(end.phi_from_start, blocks.phi)
    assert np.array_equal(end.q_tau, blocks.q_full)


def test_input_integral_matches_adaptive_quadrature_oracle():
    rng = np.random.default_rng(6)
    blocks, profile, hyper = build_blocks(rng, n_segments=3)

    def integrand(s):
        v, a = profile.evaluate(s)
        qb = blocks.at(s)
        phi_end_s = qb.phi_to_end
        return phi_end_s @ np.concatenate([v, a])

    oracle, _ = quad_vec(integrand, profile.start, profile.end,
                         epsabs=1e-12, epsrel=1e-12,
                         points=[s.t0 for s in profile.segments])
    ours = blocks.input_full
    assert np.linalg.norm(ours - oracle) / max(np.linalg.norm(oracle), 1e-12) < 1e-7

    tau = 0.35
    qb_tau = blocks.at(tau)

    def integrand_tau(s):
        v, a = profile.evaluate(s)
        phi_tau_s = qb_tau.phi_from_start @ np.linalg.inv(blocks.at(s).phi_from_start)
        return phi_tau_s @ np.concatenate([v, a])

    oracle_tau, _ = quad_vec(integrand_tau, profile.start, tau, epsabs=1e-12, epsrel=1e-12)
    ours_tau = qb_tau.input_tau
    assert np.linalg.norm(ours_tau - oracle_tau) / np.linalg.norm(oracle_tau) < 1e-7


def test_accumulated_q_matches_adaptive_quadrature_oracle():
    rng = np.random.default_rng(7)
    blocks, profile, hyper = build_blocks(rng, n_segments=3)
    picker = np.zeros((12, 6))
    picker[6:, :] = np.eye(6)

    def integrand(s):
        phi = blocks.at(s).phi_to_end
        g = phi @ picker
        return g @ hyper.qc @ g.T

    oracle, _ = quad_vec(integrand, profile.start, profile.end,
                         epsabs=1e-13, epsrel=1e-12,
                         points=[s.t0 for s in profile.segments])
    ours = blocks.q_full
    assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) < 1e-7
    # positive definite and consistent with the stored inverse
    assert np.all(np.linalg.eigvalsh(ours) > 0)
    assert np.allclose(blocks.q_full_inv @ ours, np.eye(12), atol=1e-8)


def rk4_augmented(segs, qc):
    """Dense RK4 of X' = M(s) X for each segment's 25x25 augmented generator,
    vectorized over the segments: all take the same step count, so each its
    own step h <= 1e-4.
    """
    n = len(segs)
    m_b = np.zeros((n, 25, 25))
    m_c = np.zeros((n, 25, 25))
    for k, seg in enumerate(segs):
        co = prior.system_matrix_coeffs(seg)
        m_b[k, :12, :12], m_c[k, :12, :12] = co.b, co.c
        m_b[k, 12:24, 12:24], m_c[k, 12:24, 12:24] = -co.b.T, -co.c.T
        m_b[k, 6:12, 18:24] = qc
        m_b[k, :12, 24] = np.concatenate([seg.v0, seg.a0])
        m_c[k, :12, 24] = np.concatenate([seg.v1 - seg.v0, seg.a1 - seg.a0]) / seg.duration
    durations = np.array([seg.duration for seg in segs])
    n_steps = int(np.ceil(durations.max() / 1e-4))
    h = (durations / n_steps)[:, None, None]
    x = np.broadcast_to(np.eye(25), (n, 25, 25)).copy()
    for i in range(n_steps):
        m0 = m_b + m_c * (i * h)
        mh = m_b + m_c * ((i + 0.5) * h)
        m1 = m_b + m_c * ((i + 1) * h)
        k1 = m0 @ x
        k2 = mh @ (x + h / 2 * k1)
        k3 = mh @ (x + h / 2 * k2)
        k4 = m1 @ (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_segment_integrals_match_augmented_rk4_at_segment_cap():
    # the 1e-6 RK4 contract for the input and noise integrals on segments up
    # to one 0.5 s window, where the quadrature-oracle tests above do not reach
    rng = np.random.default_rng(10)
    segs = [random_segment(rng, scale=2.0) for _ in range(8)]
    root = rng.normal(scale=0.6, size=(6, 6))
    hyper = prior.PriorHyper(root @ root.T + 0.2 * np.eye(6))
    oracle = rk4_augmented(segs, hyper.qc)

    def rel(ours, ref):
        return np.linalg.norm(ours - ref) / np.linalg.norm(ref)

    for seg, x in zip(segs, oracle):
        blocks = prior.IntervalBlocks(inputs.InputProfile((seg,)), hyper)
        assert rel(blocks.phi, x[:12, :12]) < 1e-6
        assert rel(blocks.input_full, x[:12, 24]) < 1e-6
        assert rel(blocks.q_full, x[:12, 12:24] @ x[:12, :12].T) < 1e-6


def long_segment_profiles(rng):
    """One-segment profiles of 2 s and 5 s with twist norms up to 2."""
    return [inputs.InputProfile((inputs.InputSegment(
                t0, t0 + duration, *(random_twist_bounded(rng, 2.0) for _ in range(4))),))
            for t0, duration in ((0.3, 2.0), (1.0, 5.0))]


def test_long_segment_equals_the_profile_cut_into_half_second_segments():
    rng = np.random.default_rng(12)
    hyper = random_hyper(rng)
    for profile in long_segment_profiles(rng):
        knots = np.linspace(profile.start, profile.end,
                            int(round((profile.end - profile.start) / 0.5)) + 1)
        cut = prior.precompute_intervals(profile, knots, hyper).profile
        assert len(cut) == len(knots) - 1
        whole, ref = prior.IntervalBlocks(profile, hyper), prior.IntervalBlocks(cut, hyper)
        for name in ("phi", "input_full", "q_full"):
            got, want = getattr(whole, name), getattr(ref, name)
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12, name


def test_queries_inside_long_segments_match_augmented_rk4():
    # the 1e-6 RK4 contract at query times more than one window into a segment
    rng = np.random.default_rng(13)
    hyper = random_hyper(rng)
    profiles = long_segment_profiles(rng)
    taus = (0.3 + 1.3, 1.0 + 3.7)
    heads = []
    for profile, tau in zip(profiles, taus):
        seg = profile.segments[0]
        v, a = seg.values_at(tau)
        heads.append(inputs.InputSegment(seg.t0, tau, seg.v0, v, seg.a0, a))
    oracle = rk4_augmented(heads, hyper.qc)

    def rel(ours, ref):
        return np.linalg.norm(ours - ref) / np.linalg.norm(ref)

    for profile, tau, x in zip(profiles, taus, oracle):
        qb = prior.IntervalBlocks(profile, hyper).at(tau)
        assert rel(qb.phi_from_start, x[:12, :12]) < 1e-6
        assert rel(qb.input_tau, x[:12, 24]) < 1e-6
        assert rel(qb.q_tau, x[:12, 12:24] @ x[:12, :12].T) < 1e-6


def test_query_blocks_carry_the_profile_input_velocity():
    rng = np.random.default_rng(14)
    hyper = random_hyper(rng)
    v = [random_twist_bounded(rng, 2.0) for _ in range(4)]
    z = np.zeros(6)
    # the input jumps from v[1] to v[2] at the inner knot t = 2
    profile = inputs.InputProfile((inputs.InputSegment(0.0, 2.0, v[0], v[1], z, z),
                                   inputs.InputSegment(2.0, 2.5, v[2], v[3], z, z)))
    blocks = prior.IntervalBlocks(profile, hyper)
    for tau in (0.9, 2.0 - 1e-13, 2.0, 2.5):
        assert np.array_equal(blocks.at(tau).input_velocity, profile.evaluate(tau)[0]), tau
    assert np.allclose(blocks.at(2.0 - 1e-13).input_velocity, v[1], atol=1e-12)
    zero = prior.IntervalBlocks(inputs.InputProfile.zero(0.0, 2.5), hyper)
    assert zero.closed_form
    for tau in (0.0, 0.9, 2.5):
        assert np.array_equal(zero.at(tau).input_velocity, np.zeros(6))


def test_zero_input_general_route_reproduces_closed_forms():
    hyper = prior.PriorHyper(np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.1]))
    profile = inputs.from_samples([0.0, 0.5, 1.0], np.zeros((3, 6)))
    general = prior.IntervalBlocks(profile, hyper, force_general=True)
    assert not general.closed_form
    dt = profile.end - profile.start
    assert np.allclose(general.phi, prior.wnoa_phi(dt), atol=1e-12)
    assert np.allclose(general.q_full, prior.wnoa_q(dt, hyper.qc), atol=1e-12)
    assert np.allclose(general.input_full, 0.0, atol=1e-15)
    assert np.allclose(general.q_full_inv, prior.wnoa_q_inv(dt, hyper.qc_inv), atol=1e-9)
    tau = 0.37
    qb = general.at(tau)
    assert np.allclose(qb.phi_from_start, prior.wnoa_phi(tau), atol=1e-12)
    assert np.allclose(qb.phi_to_end, prior.wnoa_phi(dt - tau), atol=1e-12)
    assert np.allclose(qb.q_tau, prior.wnoa_q(tau, hyper.qc), atol=1e-12)

    fast = prior.IntervalBlocks(profile, hyper)
    assert fast.closed_form
    assert np.allclose(fast.phi, general.phi, atol=1e-12)
    assert np.allclose(fast.q_full, general.q_full, atol=1e-12)


def test_wnoa_q_inverse_closed_form():
    hyper = prior.PriorHyper(np.full(6, 0.7))
    q = prior.wnoa_q(0.4, hyper.qc)
    qi = prior.wnoa_q_inv(0.4, hyper.qc_inv)
    assert np.allclose(q @ qi, np.eye(12), atol=1e-10)


def test_prior_mean_propagate_constant_velocity_is_exact_screw():
    # constant planar twist: positions lie on a circle of radius v/omega
    hyper = prior.PriorHyper(np.full(6, 1e-3))
    v, w = 1.0, 0.5
    profile = inputs.from_samples([0.0, 3.0], np.stack([vx(v, w), vx(v, w)]))
    blocks = prior.IntervalBlocks(profile, hyper)
    node = prior.StateNode(0.0, Pose.identity(), np.zeros(6))
    radius = v / w
    center = np.array([0.0, radius, 0.0])
    for tau in np.linspace(0.0, 3.0, 31):
        out = prior.prior_mean_propagate(node, blocks, tau)
        expected = exp_map(tau * vx(v, w))
        assert np.allclose(out.pose.translation, expected.translation, atol=1e-9)
        assert np.allclose(out.pose.rotation, expected.rotation, atol=1e-9)
        assert abs(np.linalg.norm(out.pose.translation - center) - radius) < 1e-9
        assert np.allclose(out.bias, 0.0, atol=1e-9)


def test_prior_mean_propagate_zero_inputs_moves_with_bias():
    hyper = prior.PriorHyper(np.full(6, 1e-2))
    profile = inputs.InputProfile.zero(0.0, 2.0)
    blocks = prior.IntervalBlocks(profile, hyper)
    bias = np.array([0.4, 0.1, 0.0, 0.0, 0.0, 0.3])
    node = prior.StateNode(0.0, Pose.identity(), bias)
    out = prior.prior_mean_propagate(node, blocks, 2.0)
    expected = exp_map(2.0 * bias)
    assert np.allclose(out.pose.matrix(), expected.matrix(), atol=1e-9)
    assert np.allclose(out.bias, bias, atol=1e-12)


def test_prior_mean_propagate_guards_chart():
    hyper = prior.PriorHyper(np.full(6, 1e-3))
    v = vx(1.0, 1.2)
    profile = inputs.from_samples([0.0, 3.0], np.stack([v, v]))
    blocks = prior.IntervalBlocks(profile, hyper)
    node = prior.StateNode(0.0, Pose.identity(), np.zeros(6))
    with pytest.raises(IntervalTooLongError, match=r"interval \[0, 3\] s at t = 3 s"):
        prior.prior_mean_propagate(node, blocks, 3.0)


def test_interval_blocks_deterministic():
    rng = np.random.default_rng(8)
    blocks_a, profile, hyper = build_blocks(rng, n_segments=3)
    blocks_b = prior.IntervalBlocks(profile, hyper)
    assert np.array_equal(blocks_a.phi, blocks_b.phi)
    assert np.array_equal(blocks_a.q_full, blocks_b.q_full)
    assert np.array_equal(blocks_a.input_full, blocks_b.input_full)
    qa, qb = blocks_a.at(0.31), blocks_b.at(0.31)
    assert np.array_equal(qa.q_tau, qb.q_tau)
    assert np.array_equal(qa.input_tau, qb.input_tau)


@pytest.mark.parametrize("times, error, match", [
    pytest.param([1.0], DegenerateInputError, "at least two node times", id="one"),
    pytest.param([0.0, np.nan, 2.0], DegenerateInputError, "node 1 time nan is not finite",
                 id="nan"),
    pytest.param([0.0, 1.0, np.inf], DegenerateInputError, "node 2 time inf is not finite",
                 id="inf"),
    pytest.param([0.0, 1.5, 1.5], DegenerateInputError, "node 2 time 1.5 s is not more than",
                 id="repeated"),
    pytest.param([0.0, 2.0, 1.0], DegenerateInputError, "node 2 time 1 s is not more than",
                 id="decreasing"),
    pytest.param([0.0, 1.0, 1.0 + 5e-10], DegenerateInputError, "node 2 time 1 s",
                 id="closer-than-tol"),
    pytest.param([0.0, 1.0, 3.5], DomainError, r"node 2 time 3.5 s lies outside .*\[0, 3\]",
                 id="past-the-end"),
    pytest.param([-0.5, 1.0], DomainError, "node 0 time -0.5 s lies outside", id="before"),
])
def test_precompute_intervals_names_the_bad_node_time(times, error, match):
    # contiguity is the profile's, checked where it is built; the node times are checked here
    hyper = prior.PriorHyper(np.ones(6))
    profile = inputs.InputProfile(inputs.InputProfile.zero(0.0, 1.0).segments
                                  + inputs.InputProfile.zero(1.0, 3.0).segments)
    assert len(prior.precompute_intervals(profile, [0.0, 1.0, 3.0], hyper)) == 2
    with pytest.raises(error, match=match):
        prior.precompute_intervals(profile, times, hyper)


INTERVAL_FIELDS = ("t0", "t1", "closed_form", "phi", "input_full", "q_full", "q_full_inv")
KNOT_FIELDS = ("knot_phi", "knot_input", "knot_q")
PROFILE_FIELDS = ("t0", "t1", "v0", "v1", "a0", "a1")


def mixed_profile(rng):
    """A profile, and node times that cut it into four intervals.

    They are a zero interval and ones of one segment, three segments and one
    1.2 s segment.
    """
    seg = [random_twist_bounded(rng, 1.0) for _ in range(6)]
    moving = inputs.from_samples([0.4, 0.7, 0.9, 1.0, 1.3, 2.5], seg)
    profile = inputs.InputProfile(inputs.InputProfile.zero(0.0, 0.4).segments + moving.segments)
    return profile, [0.0, 0.4, 0.7, 1.3, 2.5]


def test_one_pass_rows_equal_intervals_built_alone_and_are_views():
    rng = np.random.default_rng(12)
    hyper = random_hyper(rng)
    whole, times = mixed_profile(rng)
    intervals = prior.precompute_intervals(whole, times, hyper)
    assert len(intervals) == 4 and list(intervals.closed_form) == [True, False, False, False]
    # every node time is a knot of the profile, so no row is cut
    assert np.array_equal(intervals.offsets, [0, 1, 2, 5, 6])
    assert np.array_equal(intervals.profile.t0, whole.t0)
    assert np.array_equal(intervals.profile.t1, whole.t1)
    for k, row in enumerate(intervals):
        # a copy of the row's profile, built alone
        profile = inputs.InputProfile(row.profile.segments)
        alone = prior.IntervalBlocks(profile, hyper)
        for name in INTERVAL_FIELDS:
            assert np.array_equal(getattr(row, name), getattr(alone, name)), name
        for name in PROFILE_FIELDS:
            assert np.shares_memory(getattr(row.profile, name), getattr(intervals.profile, name))
        assert np.shares_memory(row.q_full_inv, intervals.q_full_inv)
        # the row's triples at its knots, through the one-row slice
        for name in KNOT_FIELDS:
            assert np.array_equal(getattr(intervals[k:k + 1], name), getattr(alone.arrays, name))
        tau = 0.37 * row.t0 + 0.63 * row.t1
        got, want = row.at(tau), alone.at(tau)
        for name in QUERY_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


QUERY_FIELDS = ("phi_from_start", "phi_to_end", "q_tau", "input_tau", "input_velocity")


def test_stacked_queries_equal_the_batch_of_one_rows():
    """One query call over closed-form, force_general and input-driven intervals, times shuffled.

    Each interval is asked at t0 and t1, on every knot, 1e-13 s above and
    below each knot (below a segment's end snaps forward to it), and inside
    its first segment; every row must equal at() on its own bit for bit.
    """
    rng = np.random.default_rng(16)
    hyper = random_hyper(rng)
    whole, times = mixed_profile(rng)
    forced = prior.IntervalBlocks(inputs.InputProfile.zero(0.0, 0.4), hyper, force_general=True)
    intervals = prior.precompute_intervals(whole, times, hyper)
    assert list(intervals.closed_form) == [True, False, False, False] and not forced.closed_form
    for arrays in (intervals, forced.arrays):
        k, taus = [], []
        for i, row in enumerate(arrays):
            knots = np.append(row.profile.t0, row.t1)
            asked = np.concatenate([[row.t0, row.t1], knots, knots[1:] - 1e-13,
                                    knots[:-1] + 1e-13,
                                    [row.t0 + 0.3 * (row.profile.t1[0] - row.t0)]])
            k += [i] * len(asked)
            taus += list(asked)
        order = rng.permutation(len(taus))
        k, taus = np.array(k)[order], np.array(taus)[order]
        stacked = arrays.query(k, taus)
        for j, (i, tau) in enumerate(zip(k, taus)):
            one = arrays[i].at(tau)
            for name in QUERY_FIELDS:
                assert np.array_equal(getattr(stacked, name)[j], getattr(one, name)), (i, tau, name)
    late = intervals.t1[2] + 1e-6
    with pytest.raises(DomainError, match=f"query time {late}"):
        intervals.query([0, 2], [0.1, late])


def test_a_slice_of_intervals_is_an_interval_arrays_of_views():
    rng = np.random.default_rng(13)
    hyper = random_hyper(rng)
    intervals = prior.precompute_intervals(*mixed_profile(rng), hyper)
    knot_q = intervals.knot_q.copy()
    for lo, hi in ((0, 4), (1, 3), (2, 3), (3, 4), (2, 2)):
        part = intervals[lo:hi]
        assert isinstance(part, prior.IntervalArrays) and len(part) == hi - lo
        assert part.hyper is intervals.hyper
        assert np.array_equal(part.offsets, intervals.offsets[lo:hi + 1] - intervals.offsets[lo])
        knots = slice(intervals.offsets[lo], intervals.offsets[hi])
        for name in KNOT_FIELDS:
            assert np.shares_memory(getattr(part, name), getattr(intervals, name)) or lo == hi
            assert np.array_equal(getattr(part, name), getattr(intervals, name)[knots]), name
        for name in PROFILE_FIELDS:
            assert np.array_equal(getattr(part.profile, name),
                                  getattr(intervals.profile, name)[knots]), name
        for name in INTERVAL_FIELDS:
            assert np.array_equal(getattr(part, name), getattr(intervals, name)[lo:hi]), name
    # slicing leaves the parent as it was; open and negative ends slice as a sequence does
    assert np.array_equal(intervals.knot_q, knot_q)
    assert np.array_equal(intervals[-2:].t0, intervals.t0[2:])
    assert np.array_equal(intervals[:1].t1, intervals.t1[:1])
    for stepped in (slice(None, None, 2), slice(None, None, -1)):
        with pytest.raises(WiringError, match="step"):
            intervals[stepped]


def test_the_interval_build_peaks_below_12_mib_on_600_intervals():
    """The build is chunked: all 600 segments at once peaked at 145 MiB."""
    import tracemalloc
    rng = np.random.default_rng(14)
    times = 0.1 * np.arange(601)
    profile = inputs.from_samples(times, rng.normal(scale=0.5, size=(601, 6)))
    hyper = prior.PriorHyper(np.ones(6))
    tracemalloc.start()
    try:
        prior.precompute_intervals(profile, times, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


@pytest.fixture(scope="module")
def twisty_blocks():
    """The 50 dense mobile_twisty blocks in [0, 5] s and the direct 5 s block."""
    from ctgp import scenario, simulate
    sc = scenario.bundled_scenario("mobile_twisty")
    truth = simulate.simulate_mobile(sc)
    profile = inputs.from_samples(truth.times, truth.input_velocities)
    hyper = prior.PriorHyper(sc.qc_inputs)
    t = truth.times
    fine = prior.precompute_intervals(profile, t[:51], hyper)
    return fine, prior.precompute_intervals(profile, t[[0, 50]], hyper)[0]


def test_compose_matches_the_directly_built_interval(twisty_blocks):
    fine, direct = twisty_blocks
    coarse = fine.coarsen(len(fine))[0]

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert (coarse.t0, coarse.t1) == (direct.t0, direct.t1)
    assert rel(coarse.phi, direct.phi) < 1e-10
    assert rel(coarse.input_full, direct.input_full) < 1e-10
    assert rel(coarse.q_full, direct.q_full) < 1e-10
    for tau in [b.t1 for b in fine[:-1]] + [2.345]:
        got, ref = coarse.at(tau), direct.at(tau)
        for name in ("phi_from_start", "phi_to_end", "q_tau", "input_tau"):
            assert rel(getattr(got, name), getattr(ref, name)) < 1e-10, (tau, name)


@pytest.mark.parametrize("kind", ["composed", "plain"])
def test_at_a_knot_integrates_nothing_and_returns_the_stored_triple(kind, twisty_blocks,
                                                                   monkeypatch):
    # the triple at knot m is the last one of the interval over the first m pieces
    if kind == "composed":
        fine, _ = twisty_blocks
        blocks = fine.coarsen(len(fine))[0]
        knots = [fine[0].t0] + [b.t1 for b in fine]
        upto = [fine[:m].coarsen(m)[0] for m in range(1, len(fine) + 1)]
    else:
        blocks, profile, hyper = build_blocks(np.random.default_rng(11), n_segments=3)
        segs = profile.segments
        knots = [segs[0].t0] + [s.t1 for s in segs]
        upto = [prior.IntervalBlocks(inputs.InputProfile(segs[:m]), hyper) for m in (1, 2, 3)]
    calls = []
    monkeypatch.setattr(prior, "_transitions", lambda *a: calls.append(a))
    start = blocks.at(knots[0])
    assert np.array_equal(start.phi_from_start, np.eye(12))
    assert not np.any(start.input_tau) and not np.any(start.q_tau)
    for tau, ref in zip(knots[1:], upto):
        qb = blocks.at(tau)
        assert np.array_equal(qb.phi_from_start, ref.phi)
        assert np.array_equal(qb.input_tau, ref.input_full)
        assert np.array_equal(qb.q_tau, ref.q_full)
    assert not calls


def test_compose_zero_input_blocks_gives_the_closed_form():
    hyper = prior.PriorHyper(np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.1]))
    fine = prior.precompute_intervals(inputs.InputProfile.zero(0.0, 2.0), 0.4 * np.arange(6),
                                      hyper)
    coarse = fine.coarsen(len(fine))[0]
    assert coarse.closed_form
    assert (coarse.t0, coarse.t1) == (0.0, 2.0)
    assert np.allclose(coarse.phi, prior.wnoa_phi(2.0), rtol=1e-14, atol=0)
    assert np.allclose(coarse.q_full, prior.wnoa_q(2.0, hyper.qc), rtol=1e-14, atol=0)
    assert np.allclose(coarse.q_full_inv, prior.wnoa_q_inv(2.0, hyper.qc_inv),
                       rtol=1e-12, atol=0)
    assert not np.any(coarse.input_full)
    for tau in (0.13, 0.9, 1.77):
        qb = coarse.at(tau)
        assert np.allclose(qb.phi_from_start, prior.wnoa_phi(tau), rtol=1e-14, atol=0)
        assert np.allclose(qb.phi_to_end, prior.wnoa_phi(2.0 - tau), rtol=1e-14, atol=0)
        assert np.allclose(qb.q_tau, prior.wnoa_q(tau, hyper.qc), rtol=1e-14, atol=0)
        assert not np.any(qb.input_tau)


def test_compose_mixes_zero_and_input_blocks():
    rng = np.random.default_rng(10)
    hyper = random_hyper(rng)
    seg = random_segment(rng, duration=0.3)
    z0, z1 = np.zeros(6), np.zeros(6)
    profile = inputs.InputProfile((
        inputs.InputSegment(0.0, 0.3, z0, z1, z0, z1),
        inputs.InputSegment(0.3, 0.6, seg.v0, seg.v1, seg.a0, seg.a1)))
    fine = prior.precompute_intervals(profile, [0.0, 0.3, 0.6], hyper)
    assert fine[0].closed_form and not fine[1].closed_form
    coarse = fine.coarsen(len(fine))[0]
    direct = prior.IntervalBlocks(profile, hyper)
    assert np.allclose(coarse.phi, direct.phi, rtol=1e-12, atol=1e-14)
    assert np.allclose(coarse.input_full, direct.input_full, rtol=1e-12, atol=1e-14)
    assert np.allclose(coarse.q_full, direct.q_full, rtol=1e-12, atol=1e-14)
    for tau in (0.1, 0.3, 0.45):
        got, ref = coarse.at(tau), direct.at(tau)
        assert np.allclose(got.phi_from_start, ref.phi_from_start, rtol=1e-12, atol=1e-14)
        assert np.allclose(got.q_tau, ref.q_tau, rtol=1e-12, atol=1e-14)


def test_coarsen_is_sequential_compose_bit_for_bit():
    # closed-form intervals of two rows and one, then general ones of two, two
    # and one rows; pairs of them, and the last one alone
    rng = np.random.default_rng(15)
    hyper = random_hyper(rng)
    moving = inputs.from_samples([0.8, 1.1, 1.3, 1.4, 1.7, 2.9],
                                 [random_twist_bounded(rng, 1.0) for _ in range(6)])
    profile = inputs.InputProfile(inputs.InputProfile.zero(0.0, 0.3).segments
                                  + inputs.InputProfile.zero(0.3, 0.8).segments + moving.segments)
    fine = prior.precompute_intervals(profile, [0.0, 0.4, 0.8, 1.3, 1.7, 2.9], hyper)
    assert np.array_equal(fine.offsets, [0, 2, 3, 5, 7, 8])
    coarse = fine.coarsen(2)
    assert len(coarse) == 3 and list(coarse.closed_form) == [True, False, False]
    assert np.array_equal(coarse.offsets, fine.offsets[[0, 2, 4, 5]])
    phi, inp, q = fine.knot_phi.copy(), fine.knot_input.copy(), fine.knot_q.copy()
    for k in (1, 3):  # the second fine interval of each pair, knot by knot
        last = fine.offsets[k] - 1
        for r in range(fine.offsets[k], fine.offsets[k + 1]):
            phi[r], inp[r], q[r] = prior._compose((phi[last], inp[last], q[last]),
                                                  (phi[r], inp[r], q[r]))
    end = coarse.offsets[1:] - 1
    q[end] = 0.5 * (q[end] + np.swapaxes(q[end], -1, -2))
    for name, want in (("knot_phi", phi), ("knot_input", inp), ("knot_q", q),
                       ("t0", fine.t0[[0, 2, 4]]), ("t1", fine.t1[[1, 3, 4]])):
        assert np.array_equal(getattr(coarse, name), want), name
    assert np.array_equal(coarse.q_full_inv[0], prior.wnoa_q_inv(0.8, hyper.qc_inv))
    assert np.array_equal(coarse.q_full_inv[1:], np.linalg.inv(q[end[1:]]))
    for k, lo in enumerate((0, 2, 4)):
        one = fine[lo:lo + 2].coarsen(2)
        assert np.array_equal(one.q_full_inv, coarse.q_full_inv[k:k + 1])
        assert np.array_equal(one.knot_q, coarse[k:k + 1].knot_q)


def test_coarsen_rejects_gaps():
    hyper = prior.PriorHyper(np.ones(6))
    whole = prior.precompute_intervals(inputs.InputProfile.zero(0.0, 2.0), [0.0, 1.0, 1.5, 2.0],
                                       hyper)
    # intervals [0, 1] and [1.5, 2], each of one profile row, built directly
    rows = [0, 2]
    gapped = prior.IntervalArrays(whole.profile[rows], hyper, np.arange(3),
                                  whole.closed_form[rows], whole.knot_phi[rows],
                                  whole.knot_input[rows], whole.knot_q[rows])
    whole.coarsen(3)
    with pytest.raises(DegenerateInputError, match="contiguous"):
        gapped.coarsen(2)


def random_state_nodes(rng, count):
    return [prior.StateNode(0.1 * k, exp_map(random_twist_bounded(rng, 2.0)),
                            random_twist_bounded(rng, 1.0)) for k in range(count)]


def assert_same_states(got, want):
    """Two NodeArrays hold bit-equal times and states."""
    for name in ("time", "rot", "trans", "bias"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_node_arrays_stack_state_nodes_and_renumber_node_arrays():
    nodes = random_state_nodes(np.random.default_rng(3), 5)
    stacked = prior.NodeArrays.stack(nodes)
    assert len(stacked) == 5
    assert np.array_equal(stacked.index, np.arange(5))
    assert np.array_equal(stacked.time, [n.time for n in nodes])
    assert np.array_equal(stacked.rot, np.stack([n.pose.rotation for n in nodes]))
    assert np.array_equal(stacked.trans, np.stack([n.pose.translation for n in nodes]))
    assert np.array_equal(stacked.bias, np.stack([n.bias for n in nodes]))
    # a NodeArrays keeps its states and is numbered 0 to K-1 again
    picked = stacked[[4, 1, 3]]
    again = prior.NodeArrays.stack(picked)
    assert np.array_equal(again.index, np.arange(3))
    assert_same_states(again, picked)
    # as are the StateNodes it yields
    assert_same_states(prior.NodeArrays.stack(list(picked)), picked)


def test_node_arrays_rows_are_bit_equal_state_nodes():
    nodes = random_state_nodes(np.random.default_rng(4), 4)
    stacked = prior.NodeArrays.stack(nodes)
    rows = list(stacked)
    assert len(rows) == 4
    for row, want in zip(rows + [stacked[np.int64(-1)]], nodes + nodes[-1:]):
        assert isinstance(row, prior.StateNode)
        assert type(row.time) is float and row.time == want.time
        assert np.array_equal(row.pose.rotation, want.pose.rotation)
        assert np.array_equal(row.pose.translation, want.pose.translation)
        assert np.array_equal(row.bias, want.bias)


def test_node_arrays_slice_and_index_array_keep_node_indices():
    stacked = prior.NodeArrays.stack(random_state_nodes(np.random.default_rng(5), 6))
    middle = stacked[1:4]
    assert isinstance(middle, prior.NodeArrays) and len(middle) == 3
    assert np.array_equal(middle.index, [1, 2, 3])
    assert np.array_equal(middle.time, stacked.time[1:4])
    assert middle[0].time == stacked[1].time
    picked = stacked[np.array([5, 0, 2])]
    assert np.array_equal(picked.index, [5, 0, 2])
    assert_same_states(picked, prior.NodeArrays.stack([stacked[5], stacked[0], stacked[2]]))
    assert np.array_equal(picked[::2].index, [5, 2])
