import numpy as np
import pytest
import yaml

from ctgp.continuum import (RodModel, TendonRoute, straight_pose,
                            tensions_to_inputs)
from ctgp.errors import DomainError
from ctgp.liegroup import exp_map
from ctgp.scenario import Disturbance, parse_scenario
from ctgp.simulate import filter_ranges, integrate_poses, simulate_mobile, simulate_rod

BASE = """
schema_version: 1
domain: mobile
name: sim
duration: 12.0
input_rate: 10.0
seed: 11
script:
  - {duration: 12.0, forward: 0.0, yaw_rate: 0.0}
landmarks:
  - [3.0, 4.0, 0.0]
  - [-2.0, 1.0, 0.0]
measurements:
  range: {interval: 0.5, variance: 1.0e-18}
odometry:
  variance: [1.0e-4, 2.0e-4]
hyper:
  qc_inputs: [1.77e-5, 3.50e-5]
  qc_baseline: [2.11e-3, 3.94e-2]
"""


def make_scenario(**overrides):
    d = yaml.safe_load(BASE)
    d.update(overrides)
    return parse_scenario(d)


STIFFNESS = np.array([1.8e4, 1.8e4, 4.7e4, 2.9e-3, 2.9e-3, 2.2e-3])


def make_rod(length=0.2, n_disks=10):
    disks = np.linspace(length / n_disks, length, n_disks)
    return RodModel(length, STIFFNESS, tuple(disks))


class TestMobile:
    def test_zero_inputs_stay_stationary_with_constant_ranges(self):
        truth = simulate_mobile(make_scenario())
        for pose in truth.poses:
            assert np.allclose(pose.translation, 0.0, atol=1e-12)
            assert np.allclose(pose.rotation, np.eye(3), atol=1e-12)
        expected = {0: 5.0, 1: np.sqrt(5.0)}
        for s in truth.ranges:
            assert s.value == pytest.approx(expected[s.landmark_index], abs=1e-6)

    def test_range_scale_stretches_measurements_multiplicatively(self):
        scn = make_scenario(measurements={
            "range": {"interval": 0.5, "variance": 1.0e-18, "scale": 1.01}})
        truth = simulate_mobile(scn)
        expected = {0: 5.0 * 1.01, 1: np.sqrt(5.0) * 1.01}
        for s in truth.ranges:
            assert s.value == pytest.approx(expected[s.landmark_index], abs=1e-6)

    def test_constant_twist_traces_the_expected_circle(self):
        # forward 1 m/s with yaw rate 0.5 rad/s turns about (0, 2) at radius 2
        scn = make_scenario(
            script=[{"duration": 12.0, "forward": 1.0, "yaw_rate": 0.5}])
        truth = simulate_mobile(scn)
        center = np.array([0.0, 2.0, 0.0])
        radii = [np.linalg.norm(p.translation - center) for p in truth.poses]
        assert np.allclose(radii, 2.0, atol=1e-6)
        assert max(abs(p.translation[2]) for p in truth.poses) < 1e-9

    def test_same_seed_reproduces_bit_identical_output(self):
        scn = make_scenario(process_noise=True,
                            anchor={"pose_sigma": [0.03, 0.03, 0, 0, 0, 0.02],
                                    "bias_sigma": [0.05, 0, 0, 0, 0, 0.05]})
        a = simulate_mobile(scn)
        b = simulate_mobile(scn)
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(a.biases, b.biases)
        assert [(s.time, s.landmark_index, s.value) for s in a.ranges] \
            == [(s.time, s.landmark_index, s.value) for s in b.ranges]

    def test_seed_override_changes_the_draws(self):
        scn = make_scenario(process_noise=True,
                            anchor={"bias_sigma": [0.05, 0, 0, 0, 0, 0.05]})
        a = simulate_mobile(scn)
        b = simulate_mobile(scn, seed=99)
        assert not np.allclose(a.biases, b.biases)

    def test_planar_noise_keeps_motion_in_the_plane(self):
        scn = make_scenario(
            process_noise=True,
            script=[{"duration": 12.0, "forward": 1.0, "yaw_rate": 0.3}],
            anchor={"pose_sigma": [0.03, 0.03, 0, 0, 0, 0.02],
                    "bias_sigma": [0.05, 0, 0, 0, 0, 0.05]})
        truth = simulate_mobile(scn)
        assert np.all(truth.biases[:, [1, 2, 3, 4]] == 0.0)
        assert np.any(truth.biases[:, 0] != 0.0)
        assert np.any(truth.biases[:, 5] != 0.0)
        for pose in truth.poses:
            assert abs(pose.translation[2]) < 1e-9
            assert np.allclose(pose.rotation[2, :2], 0.0, atol=1e-9)

    def test_nonplanar_walk_reaches_all_dims(self):
        scn = make_scenario(planar=False, process_noise=True)
        truth = simulate_mobile(scn)
        assert np.all(np.any(truth.biases[1:] != 0.0, axis=0))

    def test_range_schedule_and_max_range(self):
        scn = make_scenario()
        truth = simulate_mobile(scn)
        # two landmarks at every 0.5 s slot over 12 s
        assert len(truth.ranges) == 2 * 25
        times = sorted({s.time for s in truth.ranges})
        assert np.allclose(np.diff(times), 0.5)

        d = yaml.safe_load(BASE)
        d["measurements"]["range"]["max_range"] = 3.0
        near_only = simulate_mobile(parse_scenario(d))
        assert {s.landmark_index for s in near_only.ranges} == {1}

    def test_pose_at_tick_rejects_off_grid_times(self):
        truth = simulate_mobile(make_scenario())
        assert truth.pose_at_tick(0.5) is truth.poses[5]
        with pytest.raises(DomainError, match=r"t = 0\.55 s"):
            truth.pose_at_tick(0.55)
        with pytest.raises(DomainError, match=r"t = nan s"):
            truth.pose_at_tick(np.nan)

    def test_filter_ranges_keeps_multiples_of_the_interval(self):
        truth = simulate_mobile(make_scenario())
        kept = filter_ranges(truth.ranges, 2.0)
        assert {s.time for s in kept} == {0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0}


def test_integrate_poses_follows_a_constant_twist():
    # T' = xi^ T from a non-identity start is T(t) = exp(t xi) T(0)
    xi = np.array([0.8, -0.3, 0.2, 0.4, -0.7, 1.1])
    start = exp_map(np.array([1.0, 2.0, -0.5, 0.3, 0.2, -0.6]))
    grid = np.linspace(0.0, 2.0, 21)

    def velocity(t):
        return np.tile(xi, (len(t), 1))

    rot, trans = integrate_poses(velocity, grid, 1e-3, start)
    assert rot.shape == (21, 3, 3) and trans.shape == (21, 3)
    for t, r, p in zip(grid, rot, trans):
        want = exp_map(t * xi) @ start
        assert np.max(np.abs(r - want.rotation)) < 1e-10
        assert np.max(np.abs(p - want.translation)) < 1e-10
    assert np.max(np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3))) < 1e-12
    rows = [3, 7, 20]
    picked = integrate_poses(velocity, grid, 1e-3, start, rows)
    assert np.array_equal(picked[0], rot[rows]) and np.array_equal(picked[1], trans[rows])


def sample_acceleration(profile, s):
    for seg in profile.segments:
        if seg.t0 - 1e-12 <= s <= seg.t1 + 1e-12:
            u = np.clip((s - seg.t0) / (seg.t1 - seg.t0), 0.0, 1.0)
            return seg.a0 + (seg.a1 - seg.a0) * u
    return np.zeros(6)


def midpoint_shape(rod, profile, arclengths, disturbance=None, n_steps=8000):
    """Independent strain integrator: midpoint rule on the exponential chart."""
    extra = np.zeros(6)
    if disturbance is not None:
        lo, hi = np.asarray(disturbance.span) * rod.length
        extra[3:] = disturbance.moment / (hi - lo)

    def accel(s):
        a = sample_acceleration(profile, s).copy()
        if disturbance is not None and lo <= s <= hi:
            a = a + extra / rod.stiffness
        return a

    grid = np.linspace(0.0, rod.length, n_steps + 1)
    if disturbance is not None:
        # span edges must be grid points so one-sided sampling stays exact
        assert min(abs(grid - lo)) < 1e-12 and min(abs(grid - hi)) < 1e-12
    pose = straight_pose(0.0)
    strain = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    out = {0.0: pose}
    targets = sorted(float(s) for s in arclengths)
    shift = 1e-9 * rod.length
    for s0, s1 in zip(grid[:-1], grid[1:]):
        h = s1 - s0
        # one-sided limits: the acceleration jumps at the span edges
        a0, am, a1 = accel(s0 + shift), accel(0.5 * (s0 + s1)), accel(s1 - shift)
        strain_mid = strain + 0.25 * h * (a0 + am)
        pose = exp_map(h * strain_mid) @ pose
        strain = strain_mid + 0.25 * h * (am + a1)
        out[float(s1)] = pose
    keys = np.array(sorted(out))
    result = []
    for t in targets:
        k = keys[np.argmin(np.abs(keys - t))]
        assert abs(k - t) < 1e-9, "oracle grid must hit the sample arclengths"
        result.append(out[float(k)])
    return result


class TestRod:
    def test_zero_tension_rod_stays_straight(self):
        rod = make_rod()
        samples = np.linspace(0.0, rod.length, 9)
        poses = simulate_rod(rod, (), np.array([0.0, rod.length]), samples)
        for s, pose in zip(samples, poses):
            ref = straight_pose(float(s))
            assert np.allclose(pose.translation, ref.translation, atol=1e-12)
            assert np.allclose(pose.rotation, ref.rotation, atol=1e-12)

    @pytest.mark.parametrize("disturbance", [
        None,
        Disturbance(moment=np.array([0.0, 8.0e-4, 0.0]), span=(0.5, 1.0)),
    ])
    def test_matches_independent_midpoint_integrator(self, disturbance):
        rod = make_rod()
        tendons = (TendonRoute(5e-3, 0.0, 0.2, 2.0),
                   TendonRoute(5e-3, np.pi / 2, 0.13, 1.0))
        nodes = np.linspace(0.0, rod.length, 11)
        samples = rod.disk_arclengths
        poses = simulate_rod(rod, tendons, nodes, samples,
                             disturbance=disturbance)
        profile = tensions_to_inputs(rod, tendons, nodes)
        refs = midpoint_shape(rod, profile, samples, disturbance)
        for pose, ref in zip(poses, refs):
            assert np.allclose(pose.translation, ref.translation, atol=1e-7)
            assert np.allclose(pose.rotation, ref.rotation, atol=1e-6)

    def test_sample_arclength_off_the_rod_is_named(self):
        rod = make_rod()
        nodes = np.array([0.0, rod.length])
        for off in (-0.01, rod.length + 0.01, np.nan):
            samples = np.array([0.0, 0.5 * rod.length, off])
            with pytest.raises(DomainError, match=f"sample arclength {off:.6g} "):
                simulate_rod(rod, (), nodes, samples)

    def test_disturbance_bends_the_rod_away_from_the_tendon_shape(self):
        rod = make_rod()
        tendons = (TendonRoute(5e-3, 0.0, 0.2, 1.5),)
        nodes = np.array([0.0, rod.length])
        samples = np.array([rod.length])
        clean = simulate_rod(rod, tendons, nodes, samples)[0]
        loaded = simulate_rod(
            rod, tendons, nodes, samples,
            disturbance=Disturbance(moment=np.array([0.0, 1.5e-3, 0.0]),
                                    span=(0.4, 1.0)))[0]
        gap = np.linalg.norm(clean.translation - loaded.translation)
        assert gap > 1e-3
