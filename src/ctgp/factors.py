"""Error terms and analytic Jacobians for the MAP problem.

Conventions shared with the solver: poses perturb on the left,
T <- exp_map(delta) T, biases additively. Each per-node Jacobian block has
12 columns, pose coordinates first. Errors follow the measured-minus-
predicted sign so information-weighted costs read 0.5 e^T Omega e.

The one-node types (range, position, pose, velocity, planar lock, anchor)
each have one vectorized kernel over stacked node states. The solver groups
their instances into FactorBatches and linearizes each group in one call;
their evaluate and the *_factor_error functions are batch-of-one calls into
the same kernel. Covariances are validated and inverted once, when a factor
is built. Prior factors have their own batched pass, prior_factor_batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    HyperparameterError,
    SingularGeometryError,
    WiringError,
)
from .interpolation import interpolate_with_jacobian, query_kernel
from .liegroup import (
    Pose,
    curlywedge,
    jinv_vec_dx,
    left_jacobian_inv,
    log_map,
    se3_log,
    skew,
    so3_left_jacobian_inv,
    so3_log,
)
from .prior import IntervalBlocks, StateNode

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class FactorEval:
    """One linearized factor: error, per-node Jacobians, information weight."""

    error: np.ndarray
    jacobians: tuple  # ((node index, d error / d node perturbation), ...)
    information: np.ndarray

    def cost(self) -> float:
        return 0.5 * float(self.error @ self.information @ self.error)


def _information_from_covariance(covariance, label):
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    if cov.shape[0] != cov.shape[1] or not np.allclose(cov, cov.T, atol=1e-10):
        raise HyperparameterError(f"{label} covariance must be square symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise HyperparameterError(f"{label} covariance must be positive definite")
    return np.linalg.inv(cov)


def prior_factor_error(node_k: StateNode, node_k1: StateNode,
                       blocks: IntervalBlocks, *,
                       exact_bias_jacobian: bool = True,
                       indices=(0, 1)) -> FactorEval:
    """Motion-prior error between adjacent nodes, weighted by Q_k^-1.

    error = [ln(T_k1 T_k^-1)^v; Jinv(xi) b_k1] - Phi [0; b_k] - input integral.
    The bias-term Jacobian d(Jinv(xi) b_k1)/dxi defaults to the exact series
    derivative; exact_bias_jacobian=False selects the first-order
    0.5 curlywedge(b_k1) form instead.
    """
    if (abs(node_k.time - blocks.t0) > _TIME_TOL
            or abs(node_k1.time - blocks.t1) > _TIME_TOL):
        raise WiringError("node times do not match the interval the blocks were built for")

    rel = node_k1.pose @ node_k.pose.inverse()
    xi = log_map(rel)
    jinv = left_jacobian_inv(xi)
    gamma_k1 = np.concatenate([xi, jinv @ node_k1.bias])
    gamma_prop = blocks.phi @ np.concatenate([np.zeros(6), node_k.bias])
    error = gamma_k1 - gamma_prop - blocks.input_full

    d = (jinv_vec_dx(xi, node_k1.bias) if exact_bias_jacobian
         else 0.5 * curlywedge(node_k1.bias))
    chart = np.vstack([jinv, d @ jinv])  # d gamma_k1 / d xi, chained to charts
    j_pose_k1 = chart
    j_pose_k = -chart @ rel.adjoint()
    j_k = np.zeros((12, 12))
    j_k[:, :6] = j_pose_k
    j_k[:, 6:] = -blocks.phi[:, 6:]
    j_k1 = np.zeros((12, 12))
    j_k1[:, :6] = j_pose_k1
    j_k1[6:, 6:] = jinv
    return FactorEval(error, ((indices[0], j_k), (indices[1], j_k1)),
                      blocks.q_full_inv)


def prior_factor_batch(nodes, blocks_list, *, with_jacobians: bool = True):
    """Evaluate all adjacent-pair prior factors in one vectorized pass.

    Matches prior_factor_error applied to each pair, with the exact
    bias-term Jacobian. Returns a dict with stacked arrays: error (K-1, 12),
    info (K-1, 12, 12), and, when with_jacobians is set, j_k / j_k1
    (K-1, 12, 12). The stacked interval quantities (phi, input integral,
    information) are read from blocks_list, so precompute once and reuse
    across solver iterations.
    """
    if len(blocks_list) != len(nodes) - 1:
        raise WiringError("need one IntervalBlocks per adjacent node pair")
    for node, blocks, node1 in zip(nodes, blocks_list, nodes[1:]):
        if (abs(node.time - blocks.t0) > _TIME_TOL
                or abs(node1.time - blocks.t1) > _TIME_TOL):
            raise WiringError("node times do not match the interval the blocks were built for")

    rot = np.stack([n.pose.rotation for n in nodes])
    trans = np.stack([n.pose.translation for n in nodes])
    bias = np.stack([n.bias for n in nodes])
    rel_rot = rot[1:] @ np.swapaxes(rot[:-1], -1, -2)
    rel_trans = trans[1:] - np.einsum("nij,nj->ni", rel_rot, trans[:-1])
    xi = se3_log(rel_rot, rel_trans)
    jinv = left_jacobian_inv(xi)
    psi1 = np.einsum("nij,nj->ni", jinv, bias[1:])

    phi_bias = np.stack([b.phi[:, 6:] for b in blocks_list])
    input_full = np.stack([b.input_full for b in blocks_list])
    info = np.stack([b.q_full_inv for b in blocks_list])
    error = (np.concatenate([xi, psi1], axis=-1)
             - np.einsum("nij,nj->ni", phi_bias, bias[:-1]) - input_full)
    out = {"error": error, "info": info}
    if not with_jacobians:
        return out

    chart = np.concatenate([jinv, jinv_vec_dx(xi, bias[1:]) @ jinv], axis=-2)
    adj = np.zeros((len(xi), 6, 6))
    adj[:, :3, :3] = rel_rot
    adj[:, :3, 3:] = skew(rel_trans) @ rel_rot
    adj[:, 3:, 3:] = rel_rot

    j_k = np.zeros((len(xi), 12, 12))
    j_k[:, :, :6] = -chart @ adj
    j_k[:, :, 6:] = -phi_bias
    j_k1 = np.zeros((len(xi), 12, 12))
    j_k1[:, :, :6] = chart
    j_k1[:, 6:, 6:] = jinv
    out["j_k"], out["j_k1"] = j_k, j_k1
    return out


class NodeArrays(NamedTuple):
    """Node states stacked for one vectorized kernel call.

    index (n,) holds the node indices that errors name, time (n,) their
    times; rot (n, 3, 3), trans (n, 3) and bias (n, 6) the states.
    """

    index: np.ndarray
    time: np.ndarray
    rot: np.ndarray
    trans: np.ndarray
    bias: np.ndarray

    @classmethod
    def stack(cls, nodes):
        """Stack a sequence of StateNodes, indexed by their positions in it."""
        return cls(np.arange(len(nodes)),
                   np.array([n.time for n in nodes]),
                   np.stack([n.pose.rotation for n in nodes]),
                   np.stack([n.pose.translation for n in nodes]),
                   np.stack([n.bias for n in nodes]))

    def take(self, rows):
        return NodeArrays(*(a[rows] for a in self))


# One kernel per batched factor type: (NodeArrays, stacked parameters) ->
# (error (n, m), Jacobian (n, m, 12)). Every evaluation of these types, one
# factor or all of them, goes through its kernel.

def _range_kernel(nodes: NodeArrays, landmark, measured):
    offset = landmark - nodes.trans
    rng = np.linalg.norm(offset, axis=-1)
    at = np.flatnonzero(rng < 1e-9)
    if len(at):
        k = at[np.argmin(nodes.index[at])]
        raise SingularGeometryError(
            f"range factor on node {nodes.index[k]} at t = {nodes.time[k]:.6g} s is "
            "undefined: the node sits at its landmark")
    unit = offset / rng[:, None]
    jac = np.zeros((len(rng), 1, 12))
    # left perturbation moves the position by [I, -skew(t)] delta
    jac[:, 0, :3] = unit
    jac[:, 0, 3:6] = np.einsum("ni,nij->nj", unit, -skew(nodes.trans))
    return (measured - rng)[:, None], jac


def _pose_kernel(nodes: NodeArrays, meas_rot, meas_trans):
    """Pose error ln(measured pose^-1)^v and its Jacobian."""
    rel_rot = meas_rot @ np.swapaxes(nodes.rot, -1, -2)
    rel_trans = meas_trans - np.einsum("nij,nj->ni", rel_rot, nodes.trans)
    error = se3_log(rel_rot, rel_trans)
    jac = np.zeros((len(error), 6, 12))
    jac[:, :, :6] = -left_jacobian_inv(-error)
    return error, jac


def _anchor_kernel(nodes: NodeArrays, meas_rot, meas_trans, meas_bias):
    pose_error, pose_jac = _pose_kernel(nodes, meas_rot, meas_trans)
    jac = np.zeros((len(pose_error), 12, 12))
    jac[:, :6] = pose_jac
    jac[:, 6:, 6:] = -np.eye(6)
    return np.concatenate([pose_error, meas_bias - nodes.bias], axis=-1), jac


def _position_kernel(nodes: NodeArrays, measured):
    jac = np.zeros((len(measured), 3, 12))
    jac[:, :, :3] = -np.eye(3)
    jac[:, :, 3:6] = skew(nodes.trans)
    return measured - nodes.trans, jac


def _velocity_kernel(nodes: NodeArrays, measured, input_velocity, *, mask):
    error = (measured - (nodes.bias + input_velocity))[:, mask]
    jac = np.zeros(error.shape + (12,))
    jac[:, :, 6:] = -np.eye(6)[mask]
    return error, jac


# out-of-plane selection: z translation, roll/pitch, and the matching bias rows
_PLANAR_BIAS_ROWS = np.array([1, 2, 3, 4])


def _planar_lock_kernel(nodes: NodeArrays, *, bias_only):
    bias_rows = nodes.bias[:, _PLANAR_BIAS_ROWS]
    bias_jac = -np.eye(6)[_PLANAR_BIAS_ROWS]
    if bias_only:
        jac = np.zeros((len(bias_rows), 4, 12))
        jac[:, :, 6:] = bias_jac
        return -bias_rows, jac
    rotvec = so3_log(nodes.rot)
    value = np.concatenate([nodes.trans[:, 2:], rotvec[:, :2], bias_rows], axis=-1)
    jac = np.zeros((len(bias_rows), 7, 12))
    jac[:, 0, 2] = -1.0
    jac[:, 0, 3:6] = skew(nodes.trans)[:, 2]
    jac[:, 1:3, 3:6] = -so3_left_jacobian_inv(rotvec)[:, :2]
    jac[:, 3:, 6:] = bias_jac
    return -value, jac


def range_factor_error(node: StateNode, landmark, measured_range: float,
                       variance: float, *, index=0) -> FactorEval:
    """Scalar range residual to a known landmark."""
    return RangeFactor(index, landmark, measured_range, variance).evaluate_node(node)


def pose_factor_error(node: StateNode, measured: Pose, covariance, *,
                      index=0) -> FactorEval:
    """Full pose residual e = ln(measured pose^-1)^v."""
    return PoseFactor(index, measured, covariance).evaluate_node(node)


def position_factor_error(node: StateNode, measured, covariance, *,
                          index=0) -> FactorEval:
    """Translation-only residual."""
    return PositionFactor(index, measured, covariance).evaluate_node(node)


def velocity_factor_error(node: StateNode, measured, covariance, mask, *,
                          input_velocity=None, index=0) -> FactorEval:
    """Masked body-velocity residual.

    The predicted velocity is bias + input_velocity when inputs drive the
    prior, or the bias alone when they do not (input_velocity None).
    """
    return VelocityFactor(index, measured, covariance, mask,
                          input_velocity).evaluate_node(node)


def interpolated_factor(node_k: StateNode, node_k1: StateNode,
                        blocks: IntervalBlocks, tau: float, inner, *,
                        indices=(0, 1), kernel=None) -> FactorEval:
    """Measurement factor evaluated at an interpolated state.

    inner maps the interpolated StateNode to a FactorEval with a single
    12-column Jacobian; that Jacobian is chained onto both bracketing nodes.
    A prebuilt query kernel may be passed to amortize repeated evaluations
    at the same time.
    """
    if kernel is None:
        kernel = query_kernel(blocks, tau)
    pose, bias, _, g = interpolate_with_jacobian(node_k, node_k1, kernel)
    inner_eval = inner(StateNode(tau, pose, bias))
    (_, j_inner), = inner_eval.jacobians
    return FactorEval(inner_eval.error,
                      ((indices[0], j_inner @ g[:, :12]),
                       (indices[1], j_inner @ g[:, 12:])),
                      inner_eval.information)


class _BatchedFactor:
    """A one-node factor type whose instances the solver linearizes in one batch.

    A subclass names its kernel in _kernel, its per-instance kernel arguments
    in _params() and the arguments that fix the residual size, shared by a
    whole batch, in _shared(). Its weight is the stored `information`, which
    __post_init__ validates once. evaluate is a batch-of-one kernel call.
    """

    @property
    def indices(self):
        return (self.index,)

    def _shared(self):
        return {}

    def _weight(self):
        return self.information

    def evaluate_node(self, node: StateNode) -> FactorEval:
        """Linearize at one state, such as an interpolated one."""
        # Pose keeps its fields as given, which may be lists
        rot, trans = (np.asarray(a, dtype=float)[None]
                      for a in (node.pose.rotation, node.pose.translation))
        nodes = NodeArrays(np.array([self.index]), np.array([node.time]),
                           rot, trans, node.bias[None])
        params = {k: np.asarray(v, dtype=float)[None] for k, v in self._params().items()}
        error, jac = self._kernel(nodes, **params, **self._shared())
        return FactorEval(error[0], ((self.index, jac[0]),), self._weight())

    def evaluate(self, nodes) -> FactorEval:
        return self.evaluate_node(nodes[self.index])


@dataclass(frozen=True)
class PlanarLockFactor(_BatchedFactor):
    """Soft lock of the out-of-plane freedoms for planar problems.

    Penalizes z position, roll/pitch rotation, and the lateral, vertical,
    roll, and pitch bias components with a high-information zero-mean
    pseudo-measurement. With bias_only the pose rows are dropped; that keeps
    the lock information independent of how far the trajectory wanders from
    the origin (the t_z row couples rotation through skew(t), which grows
    with distance and ruins conditioning on long runs), so planarity is then
    maintained by the rate locks plus an anchor on the first node.
    """

    index: int
    information: float = 1e8
    bias_only: bool = False

    _kernel = staticmethod(_planar_lock_kernel)

    def _params(self):
        return {}

    def _shared(self):
        return {"bias_only": self.bias_only}

    def _weight(self):
        return self.information * np.eye(4 if self.bias_only else 7)


@dataclass(frozen=True)
class AnchorFactor(_BatchedFactor):
    """Absolute pose-and-bias prior on one node (gauge or initial knowledge).

    Both covariances are validated and inverted once, at construction.
    """

    index: int
    pose: Pose
    bias: np.ndarray
    pose_covariance: np.ndarray
    bias_covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False, compare=False)

    _kernel = staticmethod(_anchor_kernel)

    def __post_init__(self):
        pose_info = _information_from_covariance(self.pose_covariance, "anchor pose")
        bias_info = _information_from_covariance(self.bias_covariance, "anchor bias")
        if pose_info.shape != (6, 6) or bias_info.shape != (6, 6):
            raise HyperparameterError("anchor covariances must be 6x6")
        info = np.zeros((12, 12))
        info[:6, :6] = pose_info
        info[6:, 6:] = bias_info
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"meas_rot": self.pose.rotation, "meas_trans": self.pose.translation,
                "meas_bias": self.bias}


@dataclass(frozen=True)
class PriorFactor:
    """Motion-prior factor binding adjacent nodes k and k+1."""

    index: int
    blocks: IntervalBlocks

    @property
    def indices(self):
        return (self.index, self.index + 1)

    def evaluate(self, nodes) -> FactorEval:
        return prior_factor_error(nodes[self.index], nodes[self.index + 1],
                                  self.blocks, indices=self.indices)


@dataclass(frozen=True)
class RangeFactor(_BatchedFactor):
    index: int
    landmark: np.ndarray
    measured: float
    variance: float
    information: np.ndarray = field(init=False, repr=False, compare=False)

    _kernel = staticmethod(_range_kernel)

    def __post_init__(self):
        if not self.variance > 0:
            raise HyperparameterError("range variance must be positive")
        object.__setattr__(self, "information", np.array([[1.0 / self.variance]]))

    def _params(self):
        return {"landmark": self.landmark, "measured": self.measured}


@dataclass(frozen=True)
class PoseFactor(_BatchedFactor):
    index: int
    measured: Pose
    covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False, compare=False)

    _kernel = staticmethod(_pose_kernel)

    def __post_init__(self):
        info = _information_from_covariance(self.covariance, "pose")
        if info.shape != (6, 6):
            raise HyperparameterError("pose covariance must be 6x6")
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"meas_rot": self.measured.rotation, "meas_trans": self.measured.translation}


@dataclass(frozen=True)
class PositionFactor(_BatchedFactor):
    index: int
    measured: np.ndarray
    covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False, compare=False)

    _kernel = staticmethod(_position_kernel)

    def __post_init__(self):
        info = _information_from_covariance(self.covariance, "position")
        if info.shape != (3, 3):
            raise HyperparameterError("position covariance must be 3x3")
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"measured": self.measured}


@dataclass(frozen=True)
class VelocityFactor(_BatchedFactor):
    """Masked body-velocity measurement; see velocity_factor_error.

    The mask must select at least one component. The covariance is either
    the full 6x6 one, restricted here to the mask, or the masked one.
    """

    index: int
    measured: np.ndarray
    covariance: np.ndarray
    mask: np.ndarray
    input_velocity: np.ndarray | None = None
    information: np.ndarray = field(init=False, repr=False, compare=False)

    _kernel = staticmethod(_velocity_kernel)

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (6,) or not mask.any():
            raise DegenerateInputError("velocity mask must select at least one component")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape == (6, 6):
            cov = cov[np.ix_(mask, mask)]
        info = _information_from_covariance(cov, "velocity")
        if info.shape != (int(mask.sum()),) * 2:
            raise HyperparameterError("velocity covariance does not match the mask")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"measured": self.measured,
                "input_velocity": (np.zeros(6) if self.input_velocity is None
                                   else self.input_velocity)}

    def _shared(self):
        return {"mask": self.mask}


@dataclass
class InterpolatedFactor:
    """Measurement factor at a query time between nodes index and index+1.

    The state-independent query kernel is built once at construction and
    reused across solver iterations.
    """

    index: int
    blocks: IntervalBlocks
    tau: float
    inner: object  # StateNode -> FactorEval
    _kernel: object = field(default=None, repr=False)

    def __post_init__(self):
        self._kernel = query_kernel(self.blocks, self.tau)

    @property
    def indices(self):
        return (self.index, self.index + 1)

    def evaluate(self, nodes) -> FactorEval:
        return interpolated_factor(nodes[self.index], nodes[self.index + 1],
                                   self.blocks, self.tau, self.inner,
                                   indices=self.indices, kernel=self._kernel)


_BATCHED_TYPES = (RangeFactor, PlanarLockFactor, AnchorFactor, PositionFactor,
                  PoseFactor, VelocityFactor)


class FactorBatch:
    """Instances of one batched type and residual size, stacked once.

    linearize is one kernel call over all of them; index (n,) and
    information (n, m, m) line up with its rows.
    """

    def __init__(self, group):
        first = group[0]
        self.index = np.array([f.index for f in group])
        self.information = np.stack([f._weight() for f in group])
        self._kernel = first._kernel
        self._shared_args = first._shared()
        per = [f._params() for f in group]
        self._args = {k: np.stack([np.asarray(p[k], dtype=float) for p in per])
                      for k in per[0]}

    def linearize(self, nodes: NodeArrays):
        """(error (n, m), Jacobian (n, m, 12)) from the stacked states of all nodes."""
        return self._kernel(nodes.take(self.index), **self._args, **self._shared_args)


def batch_factors(factors):
    """Group the built-in one-node types into FactorBatches.

    Returns (batches, rest); every other factor, such as an
    InterpolatedFactor, is left in rest to be evaluated on its own.
    """
    groups, rest = {}, []
    for f in factors:
        if type(f) in _BATCHED_TYPES:
            key = (type(f),) + tuple(np.asarray(v).tobytes() for v in f._shared().values())
            groups.setdefault(key, []).append(f)
        else:
            rest.append(f)
    return [FactorBatch(g) for g in groups.values()], rest
