import numpy as np
import pytest

from ctgp import continuum, factors, prior
from ctgp.errors import CoverageError, DomainError, HyperparameterError
from ctgp.liegroup import Pose, exp_map, log_map

# 1 mm Nitinol backbone: (shear, shear, stretch, bend, bend, torsion)
ROD_STIFFNESS = np.array([1.8e4, 1.8e4, 4.7e4, 2.9e-3, 2.9e-3, 2.2e-3])
PAPER_HYPER = prior.PriorHyper(np.array([1e-2] * 3 + [1e3] * 3))
R_POSE = np.diag([4e-7] * 3 + [2.5e-4] * 3)
R_POSITION = np.diag([4e-7] * 3)


def make_rod(length=0.2, n_disks=10):
    disks = np.linspace(length / n_disks, length, n_disks)
    return continuum.RodModel(length, ROD_STIFFNESS, tuple(disks))


def profile_accel(profile):
    def accel(s):
        return profile.evaluate(float(s))[1]

    return accel


def integrate_shape(rod, accel_fn, n_steps=4000):
    """Midpoint-exponential integration of the noise-free shape equations."""
    h = rod.length / n_steps
    pose = Pose.identity()
    strain = continuum.STRAIGHT_STRAIN.copy()
    path = [(0.0, pose, strain.copy())]
    s = 0.0
    for _ in range(n_steps):
        a0, am, a1 = accel_fn(s), accel_fn(s + 0.5 * h), accel_fn(s + h)
        strain_mid = strain + 0.25 * h * (a0 + am)
        pose = exp_map(h * strain_mid) @ pose
        strain = strain_mid + 0.25 * h * (am + a1)
        s += h
        path.append((s, pose.renormalized(), strain.copy()))
    return path


def poses_at(path, arclengths):
    grid = np.array([p[0] for p in path])
    out = []
    for s in arclengths:
        i = int(np.argmin(np.abs(grid - s)))
        assert abs(grid[i] - s) < 1e-9, "query point must lie on the integration grid"
        out.append(path[i][1])
    return out


def disk_rmse(trajectory, rod, truth_poses):
    errs = []
    for s, ref in zip(rod.disk_arclengths, truth_poses):
        q = trajectory.query(s)
        errs.append(np.linalg.norm(q.pose.translation - ref.translation))
    return float(np.sqrt(np.mean(np.square(errs))))


def test_point_moment_lever_arm():
    t = continuum.TendonRoute(offset_radius=5e-3, azimuth=0.0,
                              termination_arclength=0.2, tension=1.0)
    m = continuum.point_moment(t)
    assert np.allclose(m, [0, 0, 0, 0, 5e-3, 0], atol=1e-18)

    t_side = continuum.TendonRoute(offset_radius=5e-3, azimuth=np.pi / 2,
                                   termination_arclength=0.2, tension=3.0)
    m = continuum.point_moment(t_side)
    assert np.allclose(m, [0, 0, 0, -1.5e-2, 0, 0], atol=1e-12)


def test_integrated_moment_matches_point_moment():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    for termination in (0.13, 0.2, 0.0):
        tendon = continuum.TendonRoute(5e-3, 0.7, termination, 2.5)
        profile = continuum.tensions_to_inputs(rod, [tendon], s_nodes)
        assert (profile.start, profile.end) == (0.0, rod.length)
        assert set(s_nodes) <= set(profile.t0) | {profile.end}
        total = np.zeros(6)
        for seg in profile.segments:
            total += 0.5 * (seg.a0 + seg.a1) * seg.duration
        assert np.allclose(total * rod.stiffness, continuum.point_moment(tendon),
                           atol=1e-15)


def test_zero_tensions_reproduce_constant_strain_prior():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    slack = [continuum.TendonRoute(5e-3, 0.0, 0.2, 0.0)]
    profile = continuum.tensions_to_inputs(rod, slack, s_nodes)
    assert profile.is_zero()
    assert prior.precompute_intervals(profile, s_nodes, PAPER_HYPER).closed_form.all()

    tip = factors.PositionFactor(10, np.array([0.02, 0.0, 0.19]), R_POSITION)
    _, with_slack = continuum.estimate_shape(rod, slack, [tip], PAPER_HYPER, 11)
    _, without = continuum.estimate_shape(rod, [], [tip], PAPER_HYPER, 11)
    for s in np.linspace(0.0, rod.length, 41):
        qa, qb = with_slack.query(s), without.query(s)
        assert np.linalg.norm(log_map(qa.pose @ qb.pose.inverse())) < 1e-10
        assert np.allclose(qa.bias, qb.bias, atol=1e-10)


def test_tip_pose_consistency_with_forward_oracle():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    tendon = continuum.TendonRoute(5e-3, 0.0, rod.length, 2.0)
    profile = continuum.tensions_to_inputs(rod, [tendon], s_nodes)
    truth = integrate_shape(rod, profile_accel(profile))
    tip_pose = truth[-1][1]

    meas = [factors.PoseFactor(10, tip_pose, R_POSE)]
    solution, traj = continuum.estimate_shape(rod, [tendon], meas, PAPER_HYPER, 11)
    assert solution.converged

    # integrating the posterior strain along the backbone must land on the tip
    n = 1000
    h = rod.length / n
    grid = np.linspace(0.0, rod.length, 2 * n + 1)
    strains = np.array([traj.query(float(s)).velocity for s in grid])
    pose = Pose.identity()
    for i in range(n):
        pose = exp_map(h * strains[2 * i + 1]) @ pose
    assert np.linalg.norm(pose.translation - tip_pose.translation) < 1e-6

    gap = log_map(traj.query(rod.length).pose @ tip_pose.inverse())
    assert np.linalg.norm(gap) < 1e-4


def test_base_pose_stays_anchored_under_disturbance():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    tendon = continuum.TendonRoute(5e-3, 0.0, rod.length, 2.0)
    profile = continuum.tensions_to_inputs(rod, [tendon], s_nodes)
    tendon_accel = profile_accel(profile)
    dist = np.concatenate([np.zeros(3), [0.0, -4e-3, 0.0]]) / rod.stiffness

    def accel(s):
        return tendon_accel(s) + (dist if s > 0.7 * rod.length else 0.0)

    truth = integrate_shape(rod, accel)
    meas = [factors.PoseFactor(10, truth[-1][1], R_POSE)]
    solution, traj = continuum.estimate_shape(rod, [tendon], meas, PAPER_HYPER, 11)
    assert solution.converged
    base = traj.query(0.0)
    assert np.linalg.norm(log_map(base.pose)) < 1e-9


def test_inputs_beat_no_input_prior_on_disturbed_configs():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    tensions = (1.5, 3.0, 2.0)
    azimuths = (0.0, np.pi / 3, np.pi)
    rng = np.random.default_rng(90)
    wins = []
    for tension, azimuth in zip(tensions, azimuths):
        tendon = continuum.TendonRoute(5e-3, azimuth, rod.length, tension)
        profile = continuum.tensions_to_inputs(rod, [tendon], s_nodes)
        tendon_accel = profile_accel(profile)
        m_dist = np.concatenate([np.zeros(3), rng.normal(size=3) * 1.5e-3])
        dist = m_dist / rod.stiffness

        def accel(s):
            return tendon_accel(s) + (dist if s > 0.6 * rod.length else 0.0)

        truth = integrate_shape(rod, accel)
        truth_disks = poses_at(truth, rod.disk_arclengths)
        tip = truth[-1][1].translation + rng.normal(size=3) * np.sqrt(4e-7)
        meas = [factors.PositionFactor(10, tip, R_POSITION)]

        _, with_inputs = continuum.estimate_shape(rod, [tendon], meas,
                                                  PAPER_HYPER, 11)
        _, baseline = continuum.estimate_shape(rod, [], meas, PAPER_HYPER, 11)
        wins.append(disk_rmse(with_inputs, rod, truth_disks)
                    < disk_rmse(baseline, rod, truth_disks))
    assert all(wins)


def test_configuration_validation():
    rod = make_rod()
    s_nodes = np.linspace(0.0, rod.length, 11)
    with pytest.raises(DomainError):
        continuum.tensions_to_inputs(
            rod, [continuum.TendonRoute(5e-3, 0.0, 0.25, 1.0)], s_nodes)
    with pytest.raises(CoverageError):
        continuum.tensions_to_inputs(rod, [], np.linspace(0.0, 0.15, 5))
    with pytest.raises(CoverageError):
        continuum.tensions_to_inputs(rod, [], [0.0])
    with pytest.raises(HyperparameterError):
        continuum.RodModel(0.2, np.zeros(6))
    with pytest.raises(HyperparameterError):
        continuum.RodModel(-1.0, ROD_STIFFNESS)
    with pytest.raises(HyperparameterError):
        continuum.RodModel(0.2, np.diag(ROD_STIFFNESS) + np.triu(np.ones((6, 6)), 1))
    with pytest.raises(DomainError):
        continuum.RodModel(0.2, ROD_STIFFNESS, (0.3,))
    with pytest.raises(HyperparameterError):
        continuum.TendonRoute(5e-3, 0.0, 0.2, -1.0)
    with pytest.raises(HyperparameterError):
        continuum.estimate_shape(make_rod(), [], [], PAPER_HYPER, 1)
