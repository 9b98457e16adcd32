"""End-to-end checks of the library's numerical contracts.

One test per contract, each printing a single PASS/FAIL line with its
measured numbers (visible with -s, or in the failure output). These are
the slowest tests in the suite; the whole file takes a few minutes.
"""

import time
from dataclasses import replace

import numpy as np
from scipy.stats import chi2

from ctgp import factors, prior
from ctgp.experiment import (build_mobile_problem, reproduce_fig3,
                             run_continuum, run_experiment, sweep, xy_nees)
from ctgp.inputs import InputProfile, InputSegment
from ctgp.interpolation import lambda_psi
from ctgp.liegroup import curlywedge, exp_map, left_jacobian, log_map
from ctgp.prior import magnus_transition, system_matrix_coeffs
from ctgp.scenario import (Channel, RangeSchedule, ScriptSegment,
                           bundled_scenario, parse_scenario)
from ctgp.simulate import simulate_mobile
from ctgp.solver import solve


def report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def bounded_twist(rng, max_norm):
    d = rng.normal(size=6)
    return rng.uniform(0.0, max_norm) * d / np.linalg.norm(d)


def random_profile(rng, n_segments, scale=1.0, t0=0.0, seg_span=(0.1, 0.45)):
    t = t0
    segs = []
    v_prev, a_prev = bounded_twist(rng, scale), bounded_twist(rng, scale)
    for _ in range(n_segments):
        dur = rng.uniform(*seg_span)
        v_next, a_next = bounded_twist(rng, scale), bounded_twist(rng, scale)
        segs.append(InputSegment(t, t + dur, v_prev, v_next, a_prev, a_next))
        t += dur
        v_prev, a_prev = v_next, a_next
    return InputProfile(tuple(segs))


def random_node(rng, time_=0.0, bias_scale=1.0):
    return prior.StateNode(time_, exp_map(bounded_twist(rng, 1.2)),
                           bounded_twist(rng, bias_scale))


def perturb_node(node, col, amount):
    e = np.zeros(6)
    e[col % 6] = amount
    if col < 6:
        return prior.StateNode(node.time, exp_map(e) @ node.pose, node.bias)
    return prior.StateNode(node.time, node.pose, node.bias + e)


def worst_fd_deviation(evaluate, nodes, step=1e-6):
    """Largest |analytic - central difference| over all Jacobian blocks."""
    base = evaluate(nodes)
    worst = 0.0
    for idx, jac in base.jacobians:
        for col in range(12):
            errs = []
            for sign in (1.0, -1.0):
                pert = list(nodes)
                pert[idx] = perturb_node(nodes[idx], col, sign * step)
                errs.append(evaluate(pert).error)
            num = (errs[0] - errs[1]) / (2 * step)
            worst = max(worst, float(np.max(np.abs(jac[:, col] - num))))
    return worst


def test_01_exp_log_round_trip_and_jacobian_series():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    rt_max = 0.0
    series_max = 0.0
    for _ in range(1000):
        rho = rng.normal(size=3)
        rho *= rng.uniform(0.0, 3.0) / np.linalg.norm(rho)
        phi = rng.normal(size=3)
        phi *= rng.uniform(0.0, np.pi - 0.1) / np.linalg.norm(phi)
        xi = np.concatenate([rho, phi])
        rt_max = max(rt_max, np.max(np.abs(log_map(exp_map(xi)) - xi)))
        ad = curlywedge(xi)
        term = np.eye(6)
        total = np.eye(6)
        for n in range(1, 30):
            term = term @ ad / (n + 1)
            total = total + term
        series_max = max(series_max,
                         np.max(np.abs(left_jacobian(xi) - total)))
    elapsed = time.perf_counter() - t0
    ok = rt_max < 1e-9 and series_max < 1e-12 and elapsed < 1.0
    report("lie-group suite", ok,
           f"round trip {rt_max:.2e} < 1e-9, series {series_max:.2e} < 1e-12, "
           f"{elapsed:.2f}s < 1s")


def test_02_segment_transition_matches_dense_rk4():
    # Contract: on every segment up to the 0.5 s input-segment limit, with
    # twist norms up to 2, the transition is within 1e-6 relative of dense
    # RK4 run over the exact segment length.
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    segs = []
    for _ in range(100):
        dur = round(rng.uniform(0.05, 0.5), 5)
        start = rng.uniform(0.0, 2.0)
        vals = [bounded_twist(rng, 2.0) for _ in range(4)]
        segs.append(InputSegment(start, start + dur, vals[0], vals[1],
                                 vals[2], vals[3]))
    coeffs = [system_matrix_coeffs(s) for s in segs]
    b_stack = np.stack([c.b for c in coeffs])
    c_stack = np.stack([c.c for c in coeffs])
    n_steps = np.array([int(round(c.duration / 1e-5)) for c in coeffs])
    h = 1e-5
    phi = np.broadcast_to(np.eye(12), (100, 12, 12)).copy()
    oracle = np.empty_like(phi)
    done = np.zeros(100, dtype=bool)
    for k in range(int(n_steps.max())):
        t = k * h
        a0 = b_stack + c_stack * t
        ah = b_stack + c_stack * (t + h / 2)
        a1 = b_stack + c_stack * (t + h)
        k1 = a0 @ phi
        k2 = ah @ (phi + (h / 2) * k1)
        k3 = ah @ (phi + (h / 2) * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        finished = (n_steps == k + 1) & ~done
        oracle[finished] = phi[finished]
        done |= finished
    rels = np.array([
        np.linalg.norm(magnus_transition(co, 0.0, n_steps[i] * h) - oracle[i])
        / np.linalg.norm(oracle[i])
        for i, co in enumerate(coeffs)
    ])
    elapsed = time.perf_counter() - t0
    ok = rels.max() < 1e-6 and elapsed < 30.0
    report("transition vs dense RK4", ok,
           f"max rel {rels.max():.2e} < 1e-6 (median {np.median(rels):.1e}), "
           f"{elapsed:.1f}s < 30s")


def test_03_zero_input_blocks_match_constant_velocity_forms():
    rng = np.random.default_rng(3)

    def cv_phi(dt):
        out = np.eye(12)
        out[:6, 6:] = dt * np.eye(6)
        return out

    def cv_q(dt, qc):
        out = np.empty((12, 12))
        out[:6, :6] = dt ** 3 / 3.0 * qc
        out[:6, 6:] = dt ** 2 / 2.0 * qc
        out[6:, :6] = dt ** 2 / 2.0 * qc
        out[6:, 6:] = dt * qc
        return out

    worst = 0.0
    for _ in range(20):
        start, dt = rng.uniform(0, 2), rng.uniform(0.2, 1.5)
        qc = np.diag(rng.uniform(0.2, 2.0, size=6))
        hyper = prior.PriorHyper(np.diag(qc))
        # both the closed-form route and the general route
        for force in (False, True):
            blocks = prior.IntervalBlocks(InputProfile.zero(start, start + dt),
                                          hyper, force_general=force)
            worst = max(worst, np.max(np.abs(blocks.phi - cv_phi(dt))))
            worst = max(worst, np.max(np.abs(blocks.q_full - cv_q(dt, qc))))
            tau = start + rng.uniform(0.1, 0.9) * dt
            lam, psi = lambda_psi(blocks, tau)
            psi_cf = (cv_q(tau - start, qc) @ cv_phi(start + dt - tau).T
                      @ np.linalg.inv(cv_q(dt, qc)))
            lam_cf = cv_phi(tau - start) - psi_cf @ cv_phi(dt)
            worst = max(worst, np.max(np.abs(psi - psi_cf)),
                        np.max(np.abs(lam - lam_cf)))
            node = random_node(rng, time_=start)
            prop = prior.prior_mean_propagate(node, blocks, start + dt)
            cv_pose = exp_map(dt * node.bias) @ node.pose
            worst = max(worst,
                        np.max(np.abs(prop.pose.matrix() - cv_pose.matrix())),
                        np.max(np.abs(prop.bias - node.bias)))
    report("zero-input fallback", worst < 1e-10, f"worst {worst:.2e} < 1e-10")


def test_04_prior_residual_vanishes_on_propagated_means():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        profile = random_profile(rng, int(rng.integers(1, 5)),
                                 t0=rng.uniform(0.0, 1.0))
        blocks = prior.IntervalBlocks(
            profile, prior.PriorHyper(rng.uniform(0.2, 2.0, size=6)))
        node_k = random_node(rng, time_=blocks.t0)
        node_k1 = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
        ev = factors.prior_factor_error(node_k, node_k1, blocks)
        worst = max(worst, float(np.linalg.norm(ev.error)))
    report("noise-free mean consistency", worst < 1e-6,
           f"worst residual {worst:.2e} < 1e-6")


def test_05_factor_jacobians_match_finite_differences():
    rng = np.random.default_rng(5)
    worst = {}

    def check(name, evaluate, nodes):
        dev = worst_fd_deviation(evaluate, nodes)
        worst[name] = max(worst.get(name, 0.0), dev)

    mask = np.array([True, False, False, False, False, True])
    odo_cov = np.diag([5.45e-4, 0.1, 0.1, 0.1, 0.1, 1.01e-3])
    lock_full = factors.PlanarLockFactor(0)
    lock_bias = factors.PlanarLockFactor(0, information=1e6, bias_only=True)

    for _ in range(50):
        node = random_node(rng)
        landmark = node.pose.translation + rng.normal(scale=3.0, size=3)
        check("range", lambda n: factors.range_factor_error(
            n[0], landmark, 2.0, 0.05), [node])

        node = random_node(rng)
        measured_p = node.pose.translation + rng.normal(scale=0.3, size=3)
        check("position", lambda n: factors.position_factor_error(
            n[0], measured_p, 0.01 * np.eye(3)), [node])

        node = random_node(rng)
        measured_pose = exp_map(bounded_twist(rng, 0.8)) @ node.pose
        check("pose", lambda n: factors.pose_factor_error(
            n[0], measured_pose, np.diag(rng.uniform(0.01, 0.1, size=6))),
            [node])

        node = random_node(rng)
        v_in = bounded_twist(rng, 1.0)
        measured_v = node.bias + rng.normal(scale=0.1, size=6)
        check("velocity", lambda n: factors.velocity_factor_error(
            n[0], measured_v, odo_cov, mask, input_velocity=v_in), [node])

        check("planar lock", lambda n: lock_full.evaluate(n),
              [random_node(rng, bias_scale=0.5)])
        check("bias lock", lambda n: lock_bias.evaluate(n),
              [random_node(rng, bias_scale=0.5)])

        node = random_node(rng)
        anchor = factors.AnchorFactor(0, random_node(rng).pose,
                                      bounded_twist(rng, 1.0),
                                      1e-2 * np.eye(6), 1e-1 * np.eye(6))
        check("anchor", lambda n: anchor.evaluate(n), [node])

        blocks = prior.IntervalBlocks(
            random_profile(rng, 2), prior.PriorHyper(rng.uniform(0.2, 2.0, 6)))
        node_k = random_node(rng, time_=blocks.t0)
        base = prior.prior_mean_propagate(node_k, blocks, blocks.t1)
        node_k1 = prior.StateNode(base.time,
                                  exp_map(bounded_twist(rng, 0.4)) @ base.pose,
                                  base.bias + bounded_twist(rng, 0.4))
        check("prior", lambda n: factors.prior_factor_error(
            n[0], n[1], blocks), [node_k, node_k1])

        tau = rng.uniform(blocks.t0 + 0.05, blocks.t1 - 0.05)
        check("interpolated", lambda n: factors.interpolated_factor(
            n[0], n[1], blocks, tau,
            lambda m: factors.range_factor_error(m, landmark, 2.5, 0.05)),
            [node_k, node_k1])

    worst_all = max(worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    report("factor Jacobians vs FD", worst_all < 1e-5,
           f"worst {worst_all:.2e} < 1e-5; {detail}")


def test_06_illustration_arcs_jumps_and_sinusoid():
    t0 = time.perf_counter()
    vel = reproduce_fig3("velocity")
    acc = reproduce_fig3("acceleration")
    elapsed = time.perf_counter() - t0

    def circle_deviation(xy):
        a = np.column_stack([2 * xy, np.ones(len(xy))])
        b = (xy ** 2).sum(axis=1)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        center = sol[:2]
        radius = np.sqrt(sol[2] + center @ center)
        return np.max(np.abs(np.linalg.norm(xy - center, axis=1) - radius))

    times = vel["times"]
    worst_arc = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
        sel = (times >= lo - 1e-12) & (times <= hi + 1e-12)
        worst_arc = max(worst_arc, circle_deviation(vel["prior"][sel][:, 1:3]))

    post = vel["posterior_trajectory"]
    jump_err = 0.0
    for t_b, d_yaw in ((1.0, -2.7), (2.0, 2.4)):
        jump = post.query(t_b).velocity - post.query(t_b - 1e-7).velocity
        want = np.array([0, 0, 0, 0, 0, d_yaw])
        jump_err = max(jump_err, float(np.max(np.abs(jump - want))))

    # sinusoid residual measured in the norm the fit minimizes
    wz = acc["posterior"][:, 12]
    basis = np.column_stack([np.ones_like(times),
                             np.sin(2 * np.pi * times / 6.0),
                             np.cos(2 * np.pi * times / 6.0)])
    coef, *_ = np.linalg.lstsq(basis, wz, rcond=None)
    amplitude = np.hypot(coef[1], coef[2])
    rel = np.sqrt(np.mean((wz - basis @ coef) ** 2)) / amplitude

    ok = (worst_arc < 1e-4 and jump_err < 1e-6 and rel < 1e-3
          and elapsed < 5.0)
    report("illustration curves", ok,
           f"arc dev {worst_arc:.1e} < 1e-4, jump err {jump_err:.1e} < 1e-6, "
           f"sinusoid rel {rel:.1e} < 1e-3, {elapsed:.1f}s < 5s")


def test_07_monte_carlo_rmse_and_nees_consistency():
    hold = lambda v: Channel("hold", (float(v),))
    script = (
        ScriptSegment(10.0, hold(1.0), hold(0.0),
                      Channel("sinusoid", (0.5, 10.0, 0.0, 0.0))),
        ScriptSegment(8.0, hold(0.8), hold(0.0), hold(-0.4)),
        ScriptSegment(6.0, hold(0.0), hold(0.0), hold(0.7)),
        ScriptSegment(6.0, hold(1.1), hold(0.0), hold(0.3)),
    )
    scenario = replace(bundled_scenario("mobile_twisty"), name="mc",
                       duration=30.0, script=script,
                       range_schedule=RangeSchedule(0.5, 9.0e-4))
    rmses, trial_means = [], []
    for trial in range(20):
        res = run_experiment(scenario, method="inputs", node_policy="all",
                             seed=100 + trial)
        assert res.metrics.converged
        rmses.append(res.metrics.position_rmse)
        nees = []
        for i in range(0, len(res.truth.times), 10):
            q = res.trajectory.query(float(res.truth.times[i]),
                                     with_covariance=True)
            nees.append(xy_nees(res.truth.poses[i], q))
        trial_means.append(np.mean(nees))
    mean_rmse = float(np.mean(rmses))
    anees = float(np.mean(trial_means))
    # average of 20 planar (2 dof) NEES draws, 95% band
    band = (chi2.ppf(0.025, 40) / 20, chi2.ppf(0.975, 40) / 20)
    ok = mean_rmse <= 1.5 * 0.03 and band[0] <= anees <= band[1]
    report("Monte-Carlo consistency", ok,
           f"mean RMSE {mean_rmse:.4f} <= 0.045, "
           f"ANEES {anees:.2f} in [{band[0]:.2f}, {band[1]:.2f}]")


def test_08_sparse_node_degradation_trend():
    t0 = time.perf_counter()
    results = sweep(bundled_scenario("mobile_twisty"), dt_values=(0.5, 5.0))
    elapsed = time.perf_counter() - t0
    rmse = {(m.method, m.dt_landmark): m.position_rmse for m in results}
    i05, i5 = rmse[("inputs", 0.5)], rmse[("inputs", 5.0)]
    w05, w5 = rmse[("wnoa", 0.5)], rmse[("wnoa", 5.0)]
    ok = (i5 < w5 and i5 <= 2.0 * i05 and w5 > 3.0 * w05 and elapsed < 120.0)
    report("sparse-node trend", ok,
           f"inputs {i05:.4f}->{i5:.4f} ({i5/i05:.2f}x <= 2), "
           f"baseline {w05:.4f}->{w5:.4f} ({w5/w05:.2f}x > 3), "
           f"inputs@5s < baseline@5s, {elapsed:.0f}s < 120s")


def test_09_continuum_inputs_beat_no_inputs():
    scenario = bundled_scenario("continuum_bench")
    with_inputs = run_continuum(scenario, method="inputs")
    without = run_continuum(scenario, method="wnoa")
    wins = sum(a.position_rmse < b.position_rmse
               for a, b in zip(with_inputs, without))
    worst_solve = max(m.solve_time for m in with_inputs + without)
    ok = wins >= 8 and worst_solve < 0.1
    report("continuum trend", ok,
           f"wins {wins}/9 >= 8, worst solve {worst_solve*1e3:.0f}ms < 100ms")


def test_10_long_trajectory_solve_time():
    doc = {
        "schema_version": 1, "domain": "mobile", "name": "long-drive",
        "duration": 1260.0, "input_rate": 10.0, "seed": 5, "planar": True,
        "script": [{"duration": 1260.0,
                    "forward": {"sinusoid": {"amplitude": 0.3,
                                             "period": 125.66370614359172,
                                             "offset": 1.0}},
                    "yaw_rate": {"sinusoid": {"amplitude": 0.4,
                                              "period": 314.1592653589793,
                                              "phase": 0.3}}}],
        "landmarks": [[-197.5, -200.9, 0.0], [217.1, -200.9, 0.0],
                      [217.1, 194.3, 0.0], [-197.5, 194.3, 0.0]],
        "measurements": {"range": {"interval": 1.0, "variance": 9.00e-4}},
        "odometry": {"variance": [5.45e-4, 1.01e-3]},
        "hyper": {"qc_inputs": [1.77e-5, 3.50e-5],
                  "qc_baseline": [2.11e-3, 3.94e-2]},
        "planar_lock": {"mode": "bias", "information": 1.0e+6},
    }
    truth = simulate_mobile(parse_scenario(doc))
    problem, _, node_times = build_mobile_problem(truth, method="inputs",
                                                  node_policy="all")
    t0 = time.perf_counter()
    solution = solve(problem)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and solution.converged and len(node_times) == 12601
    report("long-trajectory scaling", ok,
           f"{len(node_times)} nodes solved in {elapsed:.0f}s < 60s, "
           f"converged {solution.converged}")
