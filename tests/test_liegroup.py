import numpy as np
import pytest

from ctgp import liegroup as lg
from ctgp.errors import IllConditionedRotationError


def matrix_series(m, n_terms=40):
    """Plain power-series exponential, the oracle for the closed forms."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, n_terms):
        term = term @ m / n
        out = out + term
    return out


def jacobian_series(xi, n_terms=40):
    """Left Jacobian as sum_n curlywedge(xi)^n / (n+1)!."""
    x = lg.curlywedge(xi)
    out = np.eye(6)
    term = np.eye(6)
    for n in range(1, n_terms):
        term = term @ x / (n + 1)
        out = out + term
    return out


def random_twists(rng, n, max_angle=3.0, max_trans=1.0):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, max_angle, size=n)
    rho = rng.uniform(-max_trans, max_trans, size=(n, 3))
    return np.concatenate([rho, axes * angles[:, None]], axis=1)


def test_wedge_entries():
    m = lg.wedge(np.array([1.0, 0, 0, 0, 0, 0]))
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(m, expected)

    m = lg.wedge(np.array([0, 0, 0, 0, 0, 1.0]))
    assert m[0, 1] == -1.0 and m[1, 0] == 1.0
    assert np.count_nonzero(m) == 2


def test_curlywedge_block_structure():
    x = np.array([0, 0, 0, 0, 0, 1.0])
    m = lg.curlywedge(x)
    sz = lg.skew([0, 0, 1.0])
    assert np.array_equal(m[:3, :3], sz)
    assert np.array_equal(m[3:, 3:], sz)
    assert np.array_equal(m[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(m[3:, :3], np.zeros((3, 3)))


def test_curlywedge_bracket_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(lg.curlywedge(x) @ y, -lg.curlywedge(y) @ x, atol=1e-14)


def test_exp_map_matches_series_oracle():
    rng = np.random.default_rng(1)
    for xi in random_twists(rng, 50):
        t = lg.exp_map(xi).matrix()
        assert np.allclose(t, matrix_series(lg.wedge(xi)), atol=1e-12)


def test_exp_map_small_angle_matches_series():
    rng = np.random.default_rng(2)
    for scale in (1e-7, 1e-9, 0.0):
        xi = np.concatenate([rng.normal(size=3), scale * rng.normal(size=3)])
        t = lg.exp_map(xi).matrix()
        assert np.allclose(t, matrix_series(lg.wedge(xi)), atol=1e-13)


def test_log_exp_round_trip():
    rng = np.random.default_rng(3)
    xi = random_twists(rng, 200, max_angle=3.0, max_trans=2.0)
    for x in xi:
        assert np.allclose(lg.log_map(lg.exp_map(x)), x, atol=1e-9)


def small_angle_twists(rng, per_angle=8, max_trans=2.0):
    """Twists at angles on a log grid from 1e-9 to 1e-1 rad, and either side of each switch."""
    switches = np.array([lg.SMALL_ANGLE, lg.SERIES_ANGLE])
    angles = np.concatenate([np.logspace(-9, -1, 17), 0.999 * switches, 1.001 * switches])
    axes = rng.normal(size=(len(angles), per_angle, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    rho = rng.uniform(-1.0, 1.0, size=(len(angles), per_angle, 3))
    rho *= max_trans / np.sqrt(3.0)
    return np.concatenate([rho, axes * angles[:, None, None]], axis=-1).reshape(-1, 6)


def test_left_jacobian_matches_series_oracle():
    rng = np.random.default_rng(4)
    for xi in np.concatenate([random_twists(rng, 50), small_angle_twists(rng)]):
        assert np.allclose(lg.left_jacobian(xi), jacobian_series(xi), rtol=0.0, atol=1e-12)


def test_left_jacobian_inv_matches_inverted_series_oracle():
    rng = np.random.default_rng(13)
    for xi in np.concatenate([random_twists(rng, 50), small_angle_twists(rng)]):
        want = np.linalg.inv(jacobian_series(xi))
        assert np.allclose(lg.left_jacobian_inv(xi), want, rtol=0.0, atol=1e-12)


def test_left_jacobian_inverse_consistent():
    rng = np.random.default_rng(5)
    for xi in random_twists(rng, 50):
        prod = lg.left_jacobian_inv(xi) @ lg.left_jacobian(xi)
        assert np.allclose(prod, np.eye(6), atol=1e-10)


def test_left_jacobian_first_order_update():
    # exp(xi + delta) = exp((J_l(xi) delta)^) exp(xi) to first order
    rng = np.random.default_rng(6)
    for xi in random_twists(rng, 20, max_angle=2.5):
        delta = 1e-5 * rng.normal(size=6)
        lhs = lg.exp_map(xi + delta)
        rhs = lg.exp_map(lg.left_jacobian(xi) @ delta) @ lg.exp_map(xi)
        gap = lg.log_map(lhs @ rhs.inverse())
        assert np.linalg.norm(gap) < 1e-8


def test_identity_values():
    z = np.zeros(6)
    assert np.allclose(lg.exp_map(z).matrix(), np.eye(4))
    assert np.allclose(lg.left_jacobian(z), np.eye(6))
    assert np.allclose(lg.left_jacobian_inv(z), np.eye(6))
    assert np.allclose(lg.log_map(lg.Pose.identity()), z)


def test_log_raises_near_pi():
    xi = np.array([0.3, 0, 0, 0, 0, np.pi - 1e-9])
    with pytest.raises(IllConditionedRotationError):
        lg.log_map(lg.exp_map(xi))


def test_jacobian_inv_raises_near_two_pi():
    with pytest.raises(IllConditionedRotationError):
        lg.so3_left_jacobian_inv(np.array([0, 0, 2.0 * np.pi]))


def test_adjoint_matches_conjugation():
    rng = np.random.default_rng(7)
    for xi in random_twists(rng, 20):
        t = lg.exp_map(xi)
        y = rng.normal(size=6)
        lhs = lg.wedge(t.adjoint() @ y)
        rhs = t.matrix() @ lg.wedge(y) @ np.linalg.inv(t.matrix())
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_pose_compose_inverse_apply():
    rng = np.random.default_rng(8)
    a = lg.exp_map(random_twists(rng, 1)[0])
    b = lg.exp_map(random_twists(rng, 1)[0])
    ab = a @ b
    assert np.allclose(ab.matrix(), a.matrix() @ b.matrix(), atol=1e-14)
    assert np.allclose((a @ a.inverse()).matrix(), np.eye(4), atol=1e-14)
    pts = rng.normal(size=(5, 3))
    assert np.allclose(a.apply(pts), (a.matrix()[:3, :3] @ pts.T).T + a.translation, atol=1e-14)


def test_renormalized_projects_back():
    rng = np.random.default_rng(9)
    p = lg.exp_map(random_twists(rng, 1)[0])
    drifted = lg.Pose(p.rotation + 1e-8 * rng.normal(size=(3, 3)), p.translation)
    r = drifted.renormalized().rotation
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_batched_kernels_match_scalar():
    rng = np.random.default_rng(10)
    xi = random_twists(rng, 17)
    r_b, t_b = lg.se3_exp(xi)
    logs = lg.se3_log(r_b, t_b)
    j_b = lg.left_jacobian(xi)
    ji_b = lg.left_jacobian_inv(xi)
    for i, x in enumerate(xi):
        p = lg.exp_map(x)
        assert np.allclose(r_b[i], p.rotation, atol=1e-14)
        assert np.allclose(t_b[i], p.translation, atol=1e-14)
        assert np.allclose(logs[i], x, atol=1e-9)
        assert np.allclose(j_b[i], lg.left_jacobian(x), atol=1e-14)
        assert np.allclose(ji_b[i], lg.left_jacobian_inv(x), atol=1e-14)


def central_difference(f, x, step=1e-6):
    out = []
    for i in range(len(x)):
        dx = np.zeros_like(x)
        dx[i] = step
        out.append((f(x + dx) - f(x - dx)) / (2.0 * step))
    return np.stack(out, axis=-1)


def test_jinv_vec_dx_matches_finite_differences():
    rng = np.random.default_rng(11)
    for xi in random_twists(rng, 15, max_angle=2.5, max_trans=2.0):
        b = rng.normal(size=6)
        analytic = lg.jinv_vec_dx(xi, b)
        numeric = central_difference(lambda x: lg.left_jacobian_inv(x) @ b, xi)
        assert np.allclose(analytic, numeric, atol=1e-6)


def test_j_vec_dx_matches_finite_differences():
    rng = np.random.default_rng(12)
    for xi in random_twists(rng, 15, max_angle=2.5, max_trans=2.0):
        b = rng.normal(size=6)
        analytic = lg.j_vec_dx(xi, b)
        numeric = central_difference(lambda x: lg.left_jacobian(x) @ b, xi)
        assert np.allclose(analytic, numeric, atol=1e-6)


# angles for the chart-derivative oracles: from 1e-9 rad up to just short of
# pi, where so3_log stops and the interval chart ends
ORACLE_ANGLES = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, np.pi - 1e-3)


def oracle_twists(seed):
    rng = np.random.default_rng(seed)
    for angle in ORACLE_ANGLES:
        axis = rng.normal(size=3)
        rho = rng.normal(size=3)
        yield np.concatenate([rho, angle * axis / np.linalg.norm(axis)]), rng.normal(size=6)


def series_vec_dx(xi, vec, inverse):
    """40-digit central difference of J(xi) vec, or of J(xi)^-1 vec, by the series."""
    mp = pytest.importorskip("mpmath").mp
    step, tol = mp.mpf("1e-12"), mp.mpf("1e-34")
    # curlywedge of each unit twist: exact 0/+-1 entries
    bases = [mp.matrix(lg.curlywedge(e).tolist()) for e in np.eye(6)]

    def j_vec(x, v):
        # sum_n curlywedge(x)^n v / (n+1)!
        X = mp.matrix(6, 6)
        for xk, basis in zip(x, bases):
            X += xk * basis
        out, term, n = mp.matrix(v), mp.matrix(v), 1
        while n < 6 or mp.norm(term) > tol:
            term = X * term / (n + 1)
            out += term
            n += 1
        return out

    def value(x, v):
        if not inverse:
            return j_vec(x, v)
        cols = [j_vec(x, mp.matrix(np.eye(6)[c].tolist())) for c in range(6)]
        J = mp.matrix([[cols[c][r] for c in range(6)] for r in range(6)])
        return mp.lu_solve(J, v)

    x = [mp.mpf(float(a)) for a in xi]
    v = mp.matrix([mp.mpf(float(a)) for a in vec])
    out = np.zeros((6, 6))
    with mp.workdps(40):
        for c in range(6):
            up, down = list(x), list(x)
            up[c] += step
            down[c] -= step
            diff = (value(up, v) - value(down, v)) / (2 * step)
            out[:, c] = [float(diff[i]) for i in range(6)]
    return out


def test_j_vec_dx_matches_series_oracle():
    for xi, v in oracle_twists(14):
        assert np.allclose(lg.j_vec_dx(xi, v), series_vec_dx(xi, v, False), rtol=0.0, atol=1e-12)


def test_jinv_vec_dx_matches_series_oracle():
    for xi, v in oracle_twists(15):
        assert np.allclose(lg.jinv_vec_dx(xi, v), series_vec_dx(xi, v, True),
                           rtol=0.0, atol=1e-12)


def test_left_jacobian_inv_of_negated_twist():
    # Jinv(-xi) = Jinv(xi) + curlywedge(xi): -curlywedge(xi) / 2 is Jinv's one odd-order term
    for xi, _ in oracle_twists(16):
        assert np.allclose(lg.left_jacobian_inv(-xi), lg.left_jacobian_inv(xi) + lg.curlywedge(xi),
                           rtol=0.0, atol=1e-12)
