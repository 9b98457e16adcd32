import dataclasses

import numpy as np
import pytest
import yaml

from ctgp import prior
from ctgp.errors import ScenarioError
from ctgp.experiment import (COARSE_ROTATION_MAX, FIG3_COLUMNS, TRAJECTORY_COLUMNS,
                             Metrics, build_mobile_problem, reproduce_fig3,
                             run_continuum, run_experiment, sweep,
                             write_fig3_csv, write_metrics_csv,
                             write_trajectory_csv, xy_nees)
from ctgp.factors import InterpolatedBatch
from ctgp.liegroup import so3_log
from ctgp.scenario import (Channel, RangeSchedule, ScriptSegment, bundled_scenario,
                           parse_scenario)
from ctgp.simulate import simulate_mobile
from ctgp.solver import Problem, _Linearizer, solve

MOBILE_DOC = """
schema_version: 1
domain: mobile
name: harness
duration: 10.0
input_rate: 10.0
seed: 5
process_noise: true
script:
  - {duration: 6.0, forward: 1.0, yaw_rate: 0.4}
  - {duration: 4.0, forward: {ramp: [1.0, 0.2]}, yaw_rate: -0.5}
landmarks:
  - [4.0, 2.0, 0.0]
  - [-3.0, 5.0, 0.0]
  - [2.0, -4.0, 0.0]
measurements:
  range: {interval: 0.5, variance: 9.0e-4}
odometry:
  variance: [5.45e-4, 1.01e-3]
hyper:
  qc_inputs: [1.77e-5, 3.50e-5]
  qc_baseline: [2.11e-3, 3.94e-2]
anchor:
  pose_sigma: [0.03, 0.03, 0.0, 0.0, 0.0, 0.02]
  bias_sigma: [0.05, 0.0, 0.0, 0.0, 0.0, 0.05]
planar_lock: {mode: full, information: 1.0e+6}
"""

CONTINUUM_DOC = """
schema_version: 1
domain: continuum
name: rodbench
seed: 3
node_count: 7
rod:
  length: 0.2
  stiffness: [1.8e+4, 1.8e+4, 4.7e+4, 2.9e-3, 2.9e-3, 2.2e-3]
  disks: 6
hyper:
  qc: [1.0e-2, 1.0e+3]
tip:
  variance: 4.0e-7
tension_sets:
  - - {radius: 5.0e-3, azimuth: 0.0, termination: 0.13, tension: 2.0}
    - {radius: 5.0e-3, azimuth: 1.5707963, termination: 0.2, tension: 1.0}
disturbances:
  - {moment: [0.0, 8.0e-4, 0.0], span: [0.6, 1.0]}
"""


@pytest.fixture(scope="module")
def mobile():
    return parse_scenario(yaml.safe_load(MOBILE_DOC))


@pytest.fixture(scope="module")
def quiet_mobile(mobile):
    return dataclasses.replace(
        mobile, process_noise=False,
        range_schedule=RangeSchedule(0.5, 1e-12),
        anchor_pose_sigma=np.zeros(6), anchor_bias_sigma=np.zeros(6))


@pytest.fixture(scope="module")
def noisy_result(mobile):
    return run_experiment(mobile)


class TestRunExperiment:
    def test_noise_free_run_recovers_the_truth(self, quiet_mobile):
        res = run_experiment(quiet_mobile)
        assert res.metrics.converged
        assert res.metrics.position_rmse < 1e-3
        assert res.metrics.rotation_rmse < 1e-3

    def test_metric_invariants(self, noisy_result):
        m = noisy_result.metrics
        assert m.position_rmse <= m.position_max
        assert m.rotation_rmse <= m.rotation_max
        assert m.node_count == 101
        assert m.method == "inputs"
        assert m.node_policy == "all"
        assert m.interpolated_fraction == 0.0
        assert m.solve_time > 0.0

    def test_sparse_nodes_interpolate_the_metrics(self, mobile):
        res = run_experiment(mobile, node_policy="meas-only", dt_landmark=1.0)
        m = res.metrics
        assert m.node_count == 11
        # 10 of every 11 evaluation ticks fall between estimation times
        assert m.interpolated_fraction == pytest.approx(90 / 101)
        assert m.converged
        assert m.position_rmse < 0.1

    def test_wnoa_interpolated_odometry_takes_the_batched_path(self, mobile, monkeypatch):
        truth = simulate_mobile(dataclasses.replace(mobile, duration=2.0))
        problem, _, _ = build_mobile_problem(truth, method="wnoa",
                                             node_policy="meas-only", dt_landmark=1.0)

        def interpolated_rows(lin):
            return [len(b.index) for b in lin.batches if isinstance(b, InterpolatedBatch)]

        lin = _Linearizer(problem)
        assert lin.others == []
        assert interpolated_rows(lin) == [18]
        # a long group runs in chunks, to the same normal equations
        monkeypatch.setattr("ctgp.factors.CHUNK_ROWS", 8)
        chunked = _Linearizer(problem)
        assert interpolated_rows(chunked) == [8, 8, 2]
        state = prior.NodeArrays.stack(problem.nodes)
        for want, got in zip(lin.assemble(state), chunked.assemble(state)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rows_match_the_declared_layout(self, noisy_result):
        rows = noisy_result.rows
        assert rows.shape == (101, len(TRAJECTORY_COLUMNS))
        assert np.allclose(rows[:, 0], noisy_result.truth.times)
        # covariance diagonal stays positive
        assert np.all(rows[:, 19:] > 0.0)
        gt_xy = rows[:, 1:3]
        est_xy = rows[:, 7:9]
        rmse = np.sqrt(np.mean(np.sum((gt_xy - est_xy) ** 2, axis=1)))
        assert rmse == pytest.approx(noisy_result.metrics.position_rmse,
                                     abs=1e-6)

    def test_inputs_beat_the_baseline_when_measurements_thin_out(self, mobile):
        truth = simulate_mobile(mobile)
        a = run_experiment(mobile, truth=truth, method="inputs",
                           node_policy="meas-only", dt_landmark=2.0)
        b = run_experiment(mobile, truth=truth, method="wnoa",
                           node_policy="meas-only", dt_landmark=2.0)
        assert a.metrics.position_rmse < b.metrics.position_rmse

    def test_same_seed_reproduces_identical_rows(self, mobile):
        a = run_experiment(mobile, seed=42)
        b = run_experiment(mobile, seed=42)
        assert np.array_equal(a.rows, b.rows)

    def test_validation_rejects_bad_requests(self, mobile):
        truth = simulate_mobile(mobile)
        with pytest.raises(ScenarioError, match="method"):
            build_mobile_problem(truth, method="magic")
        with pytest.raises(ScenarioError, match="node_policy"):
            build_mobile_problem(truth, node_policy="some")
        with pytest.raises(ScenarioError, match="multiple"):
            build_mobile_problem(truth, dt_landmark=0.7)
        with pytest.raises(ScenarioError, match="multiple"):
            build_mobile_problem(truth, dt_landmark=0.25)


def without_coarse(problem):
    return Problem(problem.nodes, problem.blocks, problem.measurement_factors,
                   gauge=problem.gauge)


def factor_key(f):
    return (type(f).__name__, tuple(f.indices),
            tuple(np.ravel(getattr(f, "measured", ()))), tuple(np.ravel(getattr(f, "landmark", ()))))


class TestCoarseStart:
    @pytest.fixture(scope="class")
    def twisty(self):
        return bundled_scenario("mobile_twisty")

    def test_dead_reckoned_start_is_the_noiseless_truth(self, twisty):
        # the truth's integrator at the tick step: only RK4's truncation remains
        quiet = dataclasses.replace(twisty, process_noise=False,
                                    anchor_pose_sigma=np.zeros(6),
                                    anchor_bias_sigma=np.zeros(6))
        truth = simulate_mobile(quiet)
        nodes = build_mobile_problem(truth, method="wnoa", node_policy="all")[0].nodes
        assert len(nodes) == len(truth.poses)
        for node, pose in zip(nodes, truth.poses):
            assert np.linalg.norm(node.pose.translation - pose.translation) < 1e-6
            assert np.linalg.norm(so3_log(node.pose.rotation @ pose.rotation.T)) < 1e-7

    def test_coarse_problem_is_the_meas_only_problem_at_5s(self, twisty, monkeypatch):
        truth = simulate_mobile(twisty)
        integrated = []
        original = prior._segment_pieces

        def counting(profile, rows, *args):
            integrated.extend(rows)
            return original(profile, rows, *args)

        monkeypatch.setattr(prior, "_segment_pieces", counting)
        problem, blocks, _ = build_mobile_problem(truth, node_policy="all")
        # each dense segment is integrated once; the coarse intervals are
        # composed from the dense ones, not integrated again
        assert sorted(integrated) == list(range(len(blocks))) and len(blocks) == 600
        monkeypatch.undo()
        sparse, _, sparse_times = build_mobile_problem(truth, node_policy="meas-only",
                                                       dt_landmark=5.0)
        assert sparse.coarse is None
        coarse = problem.coarse
        assert np.array_equal([n.time for n in coarse.nodes], sparse_times)
        for f, g in zip(coarse.blocks, sparse.blocks):
            scale = np.max(np.abs(g.q_full))
            assert np.max(np.abs(f.q_full - g.q_full)) < 1e-10 * scale
            assert np.allclose(f.phi, g.phi, rtol=1e-10, atol=1e-12)
            assert np.allclose(f.input_full, g.input_full, rtol=1e-10, atol=1e-12)
        assert ([factor_key(f) for f in coarse.measurement_factors]
                == [factor_key(f) for f in sparse.measurement_factors])
        for a, b in zip(coarse.nodes, sparse.nodes):
            assert np.array_equal(a.pose.matrix(), b.pose.matrix())
            assert np.array_equal(a.bias, b.bias)
        wnoa, _, _ = build_mobile_problem(truth, method="wnoa", node_policy="all")
        assert wnoa.coarse is None

    def test_coarse_spacing_keeps_the_input_rotation_below_its_limit(self, twisty):
        # a constant 0.7 rad/s turn: 5, 3 and 2.5 s intervals turn too far
        script = (ScriptSegment(30.0, Channel("hold", (1.0,)), Channel("hold", (0.0,)),
                                Channel("hold", (0.7,))),)
        scenario = dataclasses.replace(twisty, duration=30.0, script=script)
        problem, _, _ = build_mobile_problem(simulate_mobile(scenario), node_policy="all")
        times = [n.time for n in problem.coarse.nodes]
        assert np.allclose(np.diff(times), 2.0)
        assert all(np.linalg.norm(f.input_full[3:6]) < COARSE_ROTATION_MAX
                   for f in problem.coarse.blocks)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dense_solve_from_the_coarse_start(self, twisty, seed):
        problem, _, _ = build_mobile_problem(simulate_mobile(twisty, seed=seed),
                                             node_policy="all")
        sol = solve(problem)
        assert sol.converged
        assert sol.start == "coarse"
        assert sol.iterations <= 6
        # the dead-reckoned start reaches the same optimum; seeds 3 and 4
        # take it 62 and 73 iterations, so only the cheap seeds compare
        if seed in (1, 2, 5):
            reckoned = solve(without_coarse(problem))
            assert reckoned.start == "given"
            assert sol.cost_history[-1] == pytest.approx(reckoned.cost_history[-1], rel=1e-9)


class TestNees:
    def test_single_run_consistency_smoke(self, noisy_result):
        truth = noisy_result.truth
        values = []
        for i in range(0, len(truth.times), 5):
            q = noisy_result.trajectory.query(float(truth.times[i]),
                                              with_covariance=True)
            values.append(xy_nees(truth.poses[i], q))
        mean = np.mean(values)
        # 2-dof errors; the tight band is checked over many trials elsewhere
        assert 0.5 < mean < 5.0

    def test_query_without_covariance_is_rejected(self, noisy_result):
        q = noisy_result.trajectory.query(1.05)
        with pytest.raises(ScenarioError, match="covariance"):
            xy_nees(noisy_result.truth.poses[10], q)


class TestSweep:
    def test_emits_one_row_per_setting_sharing_one_simulation(self, mobile):
        metrics = sweep(mobile, dt_values=(1.0, 2.0))
        assert [(m.dt_landmark, m.method) for m in metrics] == \
            [(1.0, "inputs"), (1.0, "wnoa"), (2.0, "inputs"), (2.0, "wnoa")]
        assert all(m.node_policy == "meas-only" for m in metrics)
        assert all(m.converged for m in metrics)
        # denser measurements cannot be worse for the same method and draws
        by_key = {(m.dt_landmark, m.method): m.position_rmse for m in metrics}
        assert by_key[(1.0, "inputs")] < by_key[(2.0, "wnoa")]


@pytest.fixture(scope="module")
def velocity():
    return reproduce_fig3("velocity")


@pytest.fixture(scope="module")
def acceleration():
    return reproduce_fig3("acceleration")


class TestFig3:
    def test_unknown_variant_is_rejected(self):
        with pytest.raises(ScenarioError, match="variant"):
            reproduce_fig3("jerk")

    def test_curves_are_sampled_densely_and_planar(self, velocity):
        for kind in ("prior", "posterior"):
            rows = velocity[kind]
            assert rows.shape == (301, len(FIG3_COLUMNS))
            assert np.allclose(rows[:, 3], 0.0, atol=1e-9)   # z
            assert np.all(rows[:, 13:] >= 0.0)               # sigmas
        assert velocity["prior_converged"] and velocity["posterior_converged"]

    def test_velocity_variant_keeps_the_commanded_jumps(self, velocity):
        rows = velocity["prior"]
        t = rows[:, 0]
        wz = rows[:, 12]
        assert wz[np.argmin(np.abs(t - 0.99))] == pytest.approx(1.2, abs=1e-6)
        assert wz[np.argmin(np.abs(t - 1.00))] == pytest.approx(-1.5, abs=1e-6)
        assert wz[np.argmin(np.abs(t - 1.99))] == pytest.approx(-1.5, abs=1e-6)
        assert wz[np.argmin(np.abs(t - 2.00))] == pytest.approx(0.9, abs=1e-6)
        # forward speed stays commanded on the prior mean
        assert np.allclose(rows[:, 7], 1.0, atol=1e-6)

    def test_acceleration_variant_integrates_to_a_sinusoid(self, acceleration):
        rows = acceleration["prior"]
        t = rows[:, 0]
        wz = rows[:, 12]
        expected = 1.2 * 6.0 / (2 * np.pi) * np.sin(2 * np.pi * t / 6.0)
        assert np.max(np.abs(wz - expected)) < 5e-3
        # linearized mean transport lets the forward component drift slightly
        assert np.allclose(rows[:, 7], 1.0, atol=1e-2)

    def test_measurement_pulls_the_tip_and_tightens_it(self, velocity):
        prior, post = velocity["prior"], velocity["posterior"]
        measured = velocity["measured_position"]
        gap_prior = np.linalg.norm(prior[-1, 1:4] - measured)
        gap_post = np.linalg.norm(post[-1, 1:4] - measured)
        assert gap_post < gap_prior
        assert gap_post < 0.03
        # position uncertainty shrinks at the measured end, not at the anchor
        assert post[-1, 13] < prior[-1, 13]
        assert post[0, 13] == pytest.approx(prior[0, 13], rel=1e-6)

    def test_prior_uncertainty_grows_from_the_anchor(self, velocity):
        # componentwise sigmas follow the local chart, so growth is only
        # monotone in the large, not sample to sample
        sigma_x = velocity["prior"][:, 13]
        assert sigma_x[0] < 1e-5
        assert sigma_x[150] > 10 * sigma_x[10]
        assert sigma_x[-1] > 2 * sigma_x[150]

    def test_fig3_is_deterministic(self, velocity):
        again = reproduce_fig3("velocity")
        assert np.array_equal(again["prior"], velocity["prior"])
        assert np.array_equal(again["posterior"], velocity["posterior"])


class TestContinuumBenchmark:
    def test_metrics_for_each_config_and_method(self):
        scn = parse_scenario(yaml.safe_load(CONTINUUM_DOC))
        with_inputs = run_continuum(scn, method="inputs")
        without = run_continuum(scn, method="wnoa")
        assert len(with_inputs) == len(without) == 1
        a, b = with_inputs[0], without[0]
        assert a.config == b.config == "tensions0-load0"
        assert a.method == "inputs" and b.method == "wnoa"
        for m in (a, b):
            assert m.converged
            assert 0.0 < m.position_rmse <= m.position_max
            assert m.solve_time > 0.0
        assert a.position_rmse < b.position_rmse


class TestCsvWriters:
    def test_trajectory_csv_round_trip(self, tmp_path, noisy_result):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, noisy_result.rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 102
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(back, noisy_result.rows, rtol=1e-10)

    def test_fig3_csv_layout(self, tmp_path):
        fig = reproduce_fig3("velocity")
        path = tmp_path / "fig3.csv"
        write_fig3_csv(path, fig["prior"])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(FIG3_COLUMNS)

    def test_metrics_csv_uses_dataclass_fields(self, tmp_path, noisy_result):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [noisy_result.metrics])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scenario,method,node_policy,dt_landmark")
        assert len(lines) == 2
        assert "inputs" in lines[1]

    def test_writers_reject_malformed_rows(self, tmp_path):
        with pytest.raises(ScenarioError, match="columns"):
            write_trajectory_csv(tmp_path / "bad.csv", np.zeros((3, 7)))
        with pytest.raises(ScenarioError, match="columns"):
            write_fig3_csv(tmp_path / "bad2.csv", np.zeros((3, 7)))
        with pytest.raises(ScenarioError, match="metrics"):
            write_metrics_csv(tmp_path / "bad3.csv", [])
