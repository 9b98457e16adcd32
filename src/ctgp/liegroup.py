"""SE(3) primitives for twists ordered translation-first.

A twist is a plain length-6 ndarray [rho, phi]: linear part first, angular
part second. All kernel functions broadcast over leading axes, so a (N, 6)
stack of twists yields (N, 4, 4) wedges, (N, 3, 3) rotations, and so on.

The exponential and the SE(3) left Jacobian, with their inverses, are
closed forms in the rotation angle t = |phi| (Barfoot & Furgale 2014).
_coeffs is the one place that evaluates the angle's coefficients, and each
map makes one such pass. Where a closed form loses precision at small
angles the pass uses its Taylor series: a, b and d below SMALL_ANGLE, and
c and Q's c3 and c4, whose closed forms cancel worst, below SERIES_ANGLE.
Callers that need a map and its Jacobian at one twist use the fused forms:
se3_exp_jacobian gives the exponential with J, se3_log_jacobian_inv the
logarithm with J^-1.

One series, j_vec_dx, differentiates J(xi) v with respect to xi. The
inverse side has no series of its own; two identities give it from the
forward side: d(J^-1 v)/dxi = -J^-1 d(J w)/dxi at w = J^-1 v, which
jinv_vec_dx and prior.interval_chart use, and J^-1(-xi) = J^-1(xi) +
curlywedge(xi), which the pose factor's Jacobian uses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, IllConditionedRotationError

# Below this angular norm the closed-form coefficients switch to Taylor series.
SMALL_ANGLE = 1e-6
# log_map refuses rotations closer than this to the pi singularity.
LOG_SINGULARITY_MARGIN = 1e-6
# Below this angle c, c3 and c4 are their Taylor series: the closed forms
# cancel, and their rounding grows like 1/t^2 as the angle t shrinks.
SERIES_ANGLE = 0.5
# c, c3 and c4's Taylor coefficients in powers of -t^2, highest power
# first; seven terms reach double precision below SERIES_ANGLE
_SERIES = np.array([[1.0 / math.factorial(2 * k + 3), 1.0 / math.factorial(2 * k + 4),
                     (k + 1.0) / math.factorial(2 * k + 5)] for k in reversed(range(7))])

# terms of the series for J(xi) v that j_vec_dx differentiates; 28 reach
# double precision at every angle up to pi
_J_TERMS = 28


def skew(v):
    """3-vector(s) to skew-symmetric matrix/matrices."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def unskew(m):
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def wedge(xi):
    """Twist to 4x4 algebra element: [[skew(phi), rho], [0, 0]]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., 0, 1] = -xi[..., 5]
    out[..., 0, 2] = xi[..., 4]
    out[..., 1, 0] = xi[..., 5]
    out[..., 1, 2] = -xi[..., 3]
    out[..., 2, 0] = -xi[..., 4]
    out[..., 2, 1] = xi[..., 3]
    out[..., :3, 3] = xi[..., :3]
    return out


def _curlywedge_basis():
    basis = np.zeros((6, 6, 6))
    for k, e in enumerate(np.eye(3)):
        basis[k, :3, 3:] = skew(e)
        basis[k + 3, :3, :3] = basis[k + 3, 3:, 3:] = skew(e)
    return basis.reshape(6, 36)


_CURLY_BASIS = _curlywedge_basis()


def curlywedge(xi):
    """Twist to 6x6 adjoint-algebra element: [[skew(phi), skew(rho)], [0, skew(phi)]].

    The map is linear, so it is one product with a fixed 0/+-1 basis; every
    entry picks up a single twist component, which keeps it exact.
    """
    xi = np.asarray(xi, dtype=float)
    return (xi @ _CURLY_BASIS).reshape(xi.shape[:-1] + (6, 6))


_Coeffs = namedtuple("_Coeffs", "p p2 a b c d c3 c4")


def _coeffs(phi, inverse=False) -> _Coeffs:
    """skew(phi), its square and the six coefficients of the angle t = |phi|.

    a = sin(t)/t, b = (1-cos t)/t^2 and c = (t-sin t)/t^3 build R and J; d
    builds J^-1; c, c3 and c4 scale the terms of Q. a, b and d are Taylor
    series below SMALL_ANGLE, and b is evaluated as 2 (sin(t/2)/t)^2,
    which does not cancel; c, c3 and c4 are series (Horner) below
    SERIES_ANGLE. Each carries two trailing unit axes, so it scales a stack
    of 3x3 matrices. inverse refuses angles where J^-1 is undefined.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi, axis=-1)
    if inverse and np.any(theta >= 2.0 * np.pi - 1e-9):
        raise IllConditionedRotationError("inverse left Jacobian undefined at angle 2*pi")
    small = theta < SMALL_ANGLE
    # Guard the divisions; small entries are overwritten by the series.
    t = np.where(small, 1.0, theta)
    t2, t4 = t * t, t**4
    s, co = np.sin(t), np.cos(t)
    a = np.where(small, 1.0 - theta**2 / 6.0, s / t)
    half = np.sin(0.5 * t) / t
    b = np.where(small, 0.5 - theta**2 / 24.0, 2.0 * half * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_closed = 1.0 / t2 - (1.0 + co) / (2.0 * t * s)
    d = np.where(small, 1.0 / 12.0 + theta**2 / 720.0, d_closed)
    minus_t2 = -(theta * theta)[..., None]
    acc = _SERIES[0]
    for row in _SERIES[1:]:
        acc = acc * minus_t2 + row
    series = theta < SERIES_ANGLE
    c = np.where(series, acc[..., 0], (t - s) / (t2 * t))
    c3 = np.where(series, acc[..., 1], (t2 + 2.0 * co - 2.0) / (2.0 * t4))
    c4 = np.where(series, acc[..., 2], (2.0 * t - 3.0 * s + t * co) / (2.0 * t4 * t))
    p = skew(phi)
    return _Coeffs(p, p @ p, *(x[..., None, None] for x in (a, b, c, d, c3, c4)))


def _exp_blocks(k: _Coeffs):
    """The rotation I + a P + b P^2 and the SO(3) left Jacobian I + b P + c P^2."""
    eye = np.eye(3)
    return eye + k.a * k.p + k.b * k.p2, eye + k.b * k.p + k.c * k.p2


def _jacobian_inv(k: _Coeffs):
    return np.eye(3) - 0.5 * k.p + k.d * k.p2


def _se3_jacobian(J, rho, k: _Coeffs, inverse=False):
    """[[J, Q], [0, J]] with Q of [rho, phi] in closed form; inverse: J is J^-1, Q is -J Q J."""
    P, Rh = k.p, skew(rho)
    PR, RP = P @ Rh, Rh @ P
    PRP = PR @ P
    Q = (0.5 * Rh + k.c * (PR + RP + PRP) + k.c3 * (P @ PR + RP @ P - 3.0 * PRP)
         + k.c4 * (PRP @ P + P @ PRP))
    out = np.zeros(J.shape[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = J
    out[..., :3, 3:] = -J @ Q @ J if inverse else Q
    return out


def so3_exp(phi):
    return _exp_blocks(_coeffs(phi))[0]


def so3_log(R):
    """Rotation matrix/matrices to rotation vector.

    Raises near the pi singularity; the error's entry is the first such batch entry.
    """
    R = np.asarray(R, dtype=float)
    vec = unskew((R - np.swapaxes(R, -1, -2)) / 2.0)
    s = np.linalg.norm(vec, axis=-1)
    c = (np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0
    theta = np.arctan2(s, np.clip(c, -1.0, 1.0))
    singular = np.flatnonzero(theta >= np.pi - LOG_SINGULARITY_MARGIN)
    if len(singular):
        raise IllConditionedRotationError(
            "rotation angle within %.0e of pi; log is ill-conditioned" % LOG_SINGULARITY_MARGIN,
            int(singular[0]))
    small = theta < SMALL_ANGLE
    scale = np.where(small, 1.0 + theta**2 / 6.0, theta / np.where(small, 1.0, s))
    return scale[..., None] * vec


def so3_project(R):
    """Nearest rotation(s) to R: SVD with the determinant sign corrected. Batched."""
    u, _, vt = np.linalg.svd(np.asarray(R, dtype=float))
    sign = np.where(np.linalg.det(u @ vt) < 0.0, -1.0, 1.0)
    u[..., -1] *= sign[..., None]
    return u @ vt


def so3_left_jacobian_inv(phi):
    return _jacobian_inv(_coeffs(phi, inverse=True))


def se3_exp(xi):
    """Batched exponential: twist(s) to (rotation, translation) arrays."""
    xi = np.asarray(xi, dtype=float)
    R, J = _exp_blocks(_coeffs(xi[..., 3:]))
    return R, np.einsum("...ij,...j->...i", J, xi[..., :3])


def se3_exp_jacobian(xi):
    """se3_exp(xi) and left_jacobian(xi) together: (rotation, translation, J)."""
    xi = np.asarray(xi, dtype=float)
    rho, k = xi[..., :3], _coeffs(xi[..., 3:])
    R, J = _exp_blocks(k)
    return R, np.einsum("...ij,...j->...i", J, rho), _se3_jacobian(J, rho, k)


def se3_log(R, t):
    """Batched logarithm of (rotation, translation) back to twist(s)."""
    phi = so3_log(R)
    rho = np.einsum("...ij,...j->...i", so3_left_jacobian_inv(phi), np.asarray(t, dtype=float))
    return np.concatenate([rho, phi], axis=-1)


def se3_log_jacobian_inv(R, t):
    """se3_log(R, t) and left_jacobian_inv of it together: (xi, J^-1)."""
    phi = so3_log(R)
    k = _coeffs(phi)  # so3_log stays below pi, inside J^-1's domain
    Ji = _jacobian_inv(k)
    rho = np.einsum("...ij,...j->...i", Ji, np.asarray(t, dtype=float))
    return np.concatenate([rho, phi], axis=-1), _se3_jacobian(Ji, rho, k, inverse=True)


def se3_adjoint(R, t):
    """Batched 6x6 adjoint [[R, skew(t) R], [0, R]] matching the twist ordering."""
    R = np.asarray(R, dtype=float)
    out = np.zeros(R.shape[:-2] + (6, 6))
    out[..., :3, :3] = R
    out[..., :3, 3:] = skew(t) @ R
    out[..., 3:, 3:] = R
    return out


def position_jacobian(t):
    """Batched 3x6 [I, -skew(t)]: d translation(s) t / d delta under T <- exp(delta) T."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (3, 6))
    out[..., :3] = np.eye(3)
    out[..., 3:] = -skew(t)
    return out


def left_jacobian(xi):
    """SE(3) left Jacobian, 6x6: [[J, Q], [0, J]]."""
    return se3_exp_jacobian(xi)[2]


def left_jacobian_inv(xi):
    """Inverse SE(3) left Jacobian, 6x6. Domain: angular norm below 2*pi."""
    xi = np.asarray(xi, dtype=float)
    k = _coeffs(xi[..., 3:], inverse=True)
    return _se3_jacobian(_jacobian_inv(k), xi[..., :3], k, inverse=True)


def j_vec_dx(xi, vec):
    """Derivative of left_jacobian(xi) @ vec with respect to xi, as a 6x6 matrix.

    The series J(xi) v = sum_n curlywedge(xi)^n v / (n+1)! term by term, to
    _J_TERMS terms or until a term falls below 1e-17; double precision at
    every angle up to pi. Batched over leading axes.
    """
    xi = np.asarray(xi, dtype=float)
    X = curlywedge(xi)
    batch = X.shape[:-2]
    out = np.zeros(batch + (6, 6))
    y = np.broadcast_to(np.asarray(vec, dtype=float), batch + (6,)).copy()
    # term n contributes sum_{j=0}^{n-1} X^j @ (-curlywedge(X^{n-1-j} vec)) / (n+1)!,
    # accumulated through S_n = X @ S_{n-1} - curlywedge(X^{n-1} vec)
    S = np.zeros(batch + (6, 6))
    coeff = 1.0
    for n in range(1, _J_TERMS):
        S = X @ S - (y @ _CURLY_BASIS).reshape(X.shape)  # curlywedge(y)
        coeff /= n + 1
        term = coeff * S
        out += term
        if np.abs(term).max() < 1e-17:
            break
        y = np.einsum("...ij,...j->...i", X, y)
    return out


def jinv_vec_dx(xi, vec):
    """Derivative of left_jacobian_inv(xi) @ vec with respect to xi, as a 6x6 matrix.

    From J(xi) J^-1(xi) v = v: it is -J^-1 times j_vec_dx at w = J^-1(xi) v.
    """
    jinv = left_jacobian_inv(xi)
    return -jinv @ j_vec_dx(xi, np.einsum("...ij,...j->...i", jinv, np.asarray(vec, dtype=float)))


@dataclass(frozen=True)
class Pose:
    """Rigid transform with a 3x3 rotation and a 3-vector translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    def matrix(self):
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def adjoint(self):
        """6x6 adjoint [[R, skew(t) R], [0, R]] matching the twist ordering."""
        return se3_adjoint(self.rotation, self.translation)

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def renormalized(self) -> "Pose":
        """Project the rotation back onto SO(3); use after repeated composition."""
        return Pose(so3_project(self.rotation), self.translation.copy())


def exp_map(xi) -> Pose:
    """Twist to Pose. Raises DegenerateInputError unless xi is a finite 6-vector."""
    try:
        twist = np.asarray(xi, dtype=float)
    except (TypeError, ValueError, OverflowError):
        twist = None
    if twist is None or twist.shape != (6,) or not np.isfinite(twist).all():
        raise DegenerateInputError(f"exp_map needs a finite 6-vector twist, got {xi!r}")
    R, t = se3_exp(twist)
    return Pose(R, t)


def log_map(pose: Pose):
    """Pose to twist.

    Raises IllConditionedRotationError within 1e-6 of angle pi, and
    DegenerateInputError for anything but a Pose.
    """
    if not isinstance(pose, Pose):
        raise DegenerateInputError(f"log_map needs a Pose, got {pose!r}")
    return se3_log(pose.rotation, pose.translation)
