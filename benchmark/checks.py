"""Checks on the program's outputs, computed apart from the program.

Every function takes plain arrays and returns a list of problems, empty
when the output passes, so a corrupted output can be fed to it directly.
Rotation angles and distances are computed here with NumPy alone, not
with ctgp's Lie-group kernels.
"""

from __future__ import annotations

import numpy as np


def rotation_angles(r_a, r_b):
    """Angle in rad of r_a r_b^T for stacks of rotation matrices."""
    rel = np.einsum("nij,nkj->nik", r_a, r_b)
    cos = 0.5 * (np.trace(rel, axis1=1, axis2=2) - 1.0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def rmse(est_rot, est_trans, true_rot, true_trans):
    """(position RMSE in m, rotation RMSE in deg) over matched samples."""
    pos = np.sqrt(np.mean(np.sum((est_trans - true_trans) ** 2, axis=1)))
    rot = np.degrees(np.sqrt(np.mean(rotation_angles(true_rot, est_rot) ** 2)))
    return float(pos), float(rot)


def ranges_match_truth(measured, positions, landmarks, scale, sigma, *, z_max=5.0):
    """Simulated ranges against distances from the truth positions.

    measured[i] was taken from positions[i] to landmarks[i]; the simulator
    scales the true distance by the scenario's calibration error and adds
    zero-mean noise of standard deviation sigma.
    """
    distances = np.linalg.norm(landmarks - positions, axis=1)
    z = (measured - scale * distances) / sigma
    problems = []
    if np.max(np.abs(z)) > z_max:
        problems.append(f"range residual {np.max(np.abs(z)):.1f} sigma exceeds {z_max}")
    if abs(np.mean(z)) > 4.0 / np.sqrt(len(z)):
        problems.append(f"range residual mean {np.mean(z):.3f} sigma is biased")
    if not 0.8 < np.std(z) < 1.2:
        problems.append(f"range residual spread {np.std(z):.3f} sigma, expected 1")
    return problems


def backbone_spacing(rotations, translations, pitch, *, rel_tol=1e-3):
    """Rod truth: backbone points p = -R^T t of consecutive samples lie one
    pitch apart, since the tendons and the hidden loads apply pure moments
    and the rod neither stretches nor shears under them."""
    points = -np.einsum("nji,nj->ni", rotations, translations)
    gaps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    worst = float(np.max(np.abs(gaps / pitch - 1.0)))
    if worst > rel_tol:
        return [f"backbone samples {worst:.2e} off their {pitch} m pitch"]
    return []


def covariances_spd(covariances, *, sym_tol=1e-9):
    """Every covariance symmetric and positive definite."""
    cov = np.asarray(covariances)
    scale = np.max(np.abs(cov), axis=(1, 2))
    asym = np.max(np.abs(cov - np.swapaxes(cov, 1, 2)), axis=(1, 2))
    problems = []
    if np.any(asym > sym_tol * scale):
        problems.append(f"{int(np.sum(asym > sym_tol * scale))} covariances not symmetric")
    low = np.linalg.eigvalsh(0.5 * (cov + np.swapaxes(cov, 1, 2)))[:, 0]
    if np.any(low <= 0.0):
        problems.append(f"{int(np.sum(low <= 0.0))} covariances not positive definite "
                        f"(lowest eigenvalue {np.min(low):.3e})")
    return problems


def continuous(at_rot, at_trans, beside_rot, beside_trans, *, tol):
    """Queries just beside a knot agree with the query at the knot."""
    gap_t = float(np.max(np.linalg.norm(beside_trans - at_trans, axis=1)))
    gap_r = float(np.max(rotation_angles(beside_rot, at_rot)))
    if max(gap_t, gap_r) > tol:
        return [f"query beside a knot is {gap_t:.2e} m / {gap_r:.2e} rad from the knot"]
    return []


def accuracy_within(pos, rot, pos_max, rot_max):
    problems = []
    if not pos <= pos_max:
        problems.append(f"position RMSE {pos:.4f} m above {pos_max} m")
    if not rot <= rot_max:
        problems.append(f"rotation RMSE {rot:.3f} deg above {rot_max} deg")
    return problems
