"""Error terms and analytic Jacobians for the MAP problem.

Conventions shared with the solver: poses perturb on the left,
T <- exp_map(delta) T, biases additively. Each per-node Jacobian block has
12 columns, pose coordinates first. Errors follow the measured-minus-
predicted sign so information-weighted costs read 0.5 e^T Omega e.

The one-node types (range, position, pose, velocity, planar lock, anchor)
each have one vectorized kernel over stacked node states. The solver groups
their instances into FactorBatches and linearizes each group in one call;
their evaluate and the *_factor_error functions are batch-of-one calls into
the same kernel. When a factor is built, its covariances are validated and
inverted once, and its measured values are checked for shape and
finiteness and copied.

An InterpolatedFactor wraps one of those one-node factors, its inner, and
is read through the problem's own interval that holds its time. It joins an
InterpolatedBatch of up to CHUNK_ROWS rows, which builds the
state-independent rows of its query times from the problem's IntervalArrays
once (interpolation.query_rows); at each linearization one batched
interpolation chain gives the states at all of them, the inner kernel runs
on those, and its Jacobian is chained onto both bracketing nodes. A
measurement of another kind is a custom two-node factor whose evaluate
calls interpolated_factor.

The motion prior is no factor object: the solver takes its intervals as
they are, in one IntervalArrays. prior_factor_batch evaluates the prior
error of every interval in one pass, reading Phi, the input integrals and
Q^-1 from that container and the interval charts (prior.interval_chart)
that the interpolated queries also read; prior_factor_error is its batch
of one.

Every factor dataclass is frozen and compares by identity (eq=False), so
factors are hashable and comparing two never touches their array fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateInputError,
    HyperparameterError,
    IllConditionedRotationError,
    SingularGeometryError,
    WiringError,
)
from .interpolation import CHUNK_ROWS, chain, query_rows
from .liegroup import (Pose, curlywedge, position_jacobian, se3_log_jacobian_inv,
                       so3_left_jacobian_inv, so3_log)
from .prior import (IntervalArrays, IntervalBlocks, IntervalChart, NodeArrays, StateNode,
                    check_interval_times, interval_chart)


@dataclass(frozen=True)
class FactorEval:
    """One linearized factor: error, per-node Jacobians, information weight."""

    error: np.ndarray
    jacobians: tuple  # ((node index, d error / d node perturbation), ...)
    information: np.ndarray

    def cost(self) -> float:
        return 0.5 * float(self.error @ self.information @ self.error)


def _information_from_covariance(covariance, label):
    try:
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    except (TypeError, ValueError):
        raise HyperparameterError(f"{label} covariance is not numeric: {covariance!r}") from None
    if cov.shape[0] != cov.shape[1] or not np.allclose(cov, cov.T, atol=1e-10):
        raise HyperparameterError(f"{label} covariance must be square symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise HyperparameterError(f"{label} covariance must be positive definite")
    return np.linalg.inv(cov)


def _check_values(factor, shapes):
    """Store a copy of each named field of factor as a finite float array of its shape.

    shapes maps field names to shapes; a field of shape () is kept as a
    float. Raises DegenerateInputError naming the factor and the field.
    """
    for name, shape in shapes.items():
        try:
            value = np.array(getattr(factor, name), dtype=float)
        except (TypeError, ValueError):
            value = None
        if value is None or value.shape != shape or not np.all(np.isfinite(value)):
            raise DegenerateInputError(
                f"{type(factor).__name__} field {name} must be finite of shape {shape}, "
                f"got {getattr(factor, name)!r}")
        object.__setattr__(factor, name, value if shape else float(value))


def _check_pose(factor, name):
    """As _check_values, for a Pose field: a finite 3x3 rotation and 3-vector translation."""
    pose = getattr(factor, name)
    try:
        rot, trans = (np.array(getattr(pose, p), dtype=float) for p in ("rotation", "translation"))
    except (AttributeError, TypeError, ValueError):
        rot = trans = np.empty(0)
    if rot.shape != (3, 3) or trans.shape != (3,) or not np.isfinite(np.append(rot, trans)).all():
        raise DegenerateInputError(f"{type(factor).__name__} field {name} must be finite: a Pose "
                                   f"of a 3x3 rotation and a 3-vector translation, got {pose!r}")
    object.__setattr__(factor, name, Pose(rot, trans))


def is_node_index(index):
    """Whether index can number a node: an int or a NumPy integer, not a bool."""
    return isinstance(index, (int, np.integer)) and not isinstance(index, bool)


def prior_factor_batch(nodes, blocks, *, chart=None):
    """Evaluate all adjacent-pair prior factors in one vectorized pass.

    error = [ln(T_k1 T_k^-1)^v; Jinv(xi) b_k1] - Phi [0; b_k] - input
    integral, weighted by Q_k^-1. The bias term's Jacobian comes from
    interval_chart. Returns a dict with stacked arrays: error (K-1, 12), info
    (K-1, 12, 12), and j_k / j_k1 (K-1, 12, 12).

    nodes is the K node states, stacked by NodeArrays.stack, and blocks the
    K-1 intervals, IntervalBlocks or their IntervalArrays (stacked by
    IntervalArrays.stack), checked here against the node times. The solver
    passes its Problem's IntervalArrays and the interval charts
    (interval_chart) that its interpolated factors also read.
    """
    nodes = NodeArrays.stack(nodes)
    blocks = IntervalArrays.stack(blocks)
    if len(blocks) != len(nodes) - 1:
        raise WiringError("need one IntervalBlocks per adjacent node pair")
    check_interval_times(nodes.time, blocks.t0, blocks.t1)
    if chart is None:
        chart = interval_chart(nodes)
    phi_bias = blocks.phi[:, :, 6:]
    error = (chart.gamma - np.einsum("nij,nj->ni", phi_bias, nodes.bias[:-1])
             - blocks.input_full)
    j_k = np.empty((len(error), 12, 12))
    j_k[:, :, :6] = chart.jac_k
    j_k[:, :, 6:] = -phi_bias
    return {"error": error, "info": blocks.q_full_inv, "j_k": j_k, "j_k1": chart.jac_k1}


def prior_factor_error(node_k: StateNode, node_k1: StateNode,
                       blocks: IntervalBlocks, *, indices=(0, 1)) -> FactorEval:
    """Motion-prior error between adjacent nodes, weighted by Q_k^-1.

    A batch of one through prior_factor_batch.
    """
    p = prior_factor_batch([node_k, node_k1], [blocks])
    return FactorEval(p["error"][0], ((indices[0], p["j_k"][0]), (indices[1], p["j_k1"][0])),
                      p["info"][0])


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
    jac[:, 0, :6] = np.einsum("ni,nij->nj", unit, position_jacobian(nodes.trans))
    return (measured - rng)[:, None], jac


def _named_at_node(err: IllConditionedRotationError, what: str, nodes: NodeArrays):
    """err again, naming the node and time of the batch entry that raised it."""
    k = err.entry
    return IllConditionedRotationError(
        f"{what} on node {nodes.index[k]} at t = {nodes.time[k]:.6g} s: {err}", k)


def _pose_kernel(nodes: NodeArrays, meas_rot, meas_trans):
    """Pose error ln(measured pose^-1)^v and its Jacobian."""
    rel_rot = meas_rot @ np.swapaxes(nodes.rot, -1, -2)
    rel_trans = meas_trans - np.einsum("nij,nj->ni", rel_rot, nodes.trans)
    try:
        error, jinv = se3_log_jacobian_inv(rel_rot, rel_trans)
    except IllConditionedRotationError as err:
        raise _named_at_node(err, "pose error", nodes) from err
    jac = np.zeros((len(error), 6, 12))
    # -Jinv(-error), by Jinv(-xi) = Jinv(xi) + curlywedge(xi)
    jac[:, :, :6] = -(jinv + curlywedge(error))
    return error, jac


def _anchor_kernel(nodes: NodeArrays, meas_rot, meas_trans, meas_bias):
    pose_error, pose_jac = _pose_kernel(nodes, meas_rot, meas_trans)
    jac = np.zeros((len(pose_error), 12, 12))
    jac[:, :6] = pose_jac
    jac[:, 6:, 6:] = -np.eye(6)
    return np.concatenate([pose_error, meas_bias - nodes.bias], axis=-1), jac


def _position_kernel(nodes: NodeArrays, measured):
    jac = np.zeros((len(measured), 3, 12))
    jac[:, :, :6] = -position_jacobian(nodes.trans)
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
    try:
        rotvec = so3_log(nodes.rot)
    except IllConditionedRotationError as err:
        raise _named_at_node(err, "planar lock", nodes) from err
    value = np.concatenate([nodes.trans[:, 2:], rotvec[:, :2], bias_rows], axis=-1)
    jac = np.zeros((len(bias_rows), 7, 12))
    jac[:, 0, :6] = -position_jacobian(nodes.trans)[:, 2]
    jac[:, 1:3, 3:6] = -so3_left_jacobian_inv(rotvec)[:, :2]
    jac[:, 3:, 6:] = bias_jac
    return -value, jac


def range_factor_error(node: StateNode, landmark, measured_range: float,
                       variance: float) -> FactorEval:
    """Scalar range residual to a known landmark."""
    return RangeFactor(0, landmark, measured_range, variance).evaluate_node(node)


def pose_factor_error(node: StateNode, measured: Pose, covariance) -> FactorEval:
    """Full pose residual e = ln(measured pose^-1)^v."""
    return PoseFactor(0, measured, covariance).evaluate_node(node)


def position_factor_error(node: StateNode, measured, covariance) -> FactorEval:
    """Translation-only residual."""
    return PositionFactor(0, measured, covariance).evaluate_node(node)


def velocity_factor_error(node: StateNode, measured, covariance, mask, *,
                          input_velocity=None) -> FactorEval:
    """Masked body-velocity residual.

    The predicted velocity is bias + input_velocity when inputs drive the
    prior, or the bias alone when they do not (input_velocity None).
    """
    return VelocityFactor(0, measured, covariance, mask,
                          input_velocity).evaluate_node(node)


def interpolated_factor(node_k: StateNode, node_k1: StateNode,
                        blocks: IntervalBlocks, tau: float, inner, *,
                        indices=(0, 1)) -> FactorEval:
    """Measurement factor evaluated at an interpolated state.

    The state at tau and its 12x24 node Jacobian come from one query row
    (interpolation.query_rows) and one chain over the two nodes, whose
    times are checked against the interval here. inner maps the
    interpolated StateNode to a FactorEval with a single 12-column
    Jacobian; that Jacobian is chained onto both bracketing nodes. A custom
    two-node factor for a measurement of a new kind calls this.
    """
    nodes = NodeArrays.stack([node_k, node_k1])
    rows = query_rows(blocks.arrays, [tau], [blocks.row])._replace(interval=np.zeros(1, int))
    check_interval_times(nodes.time, rows.t0, rows.t1)
    ch = chain(rows, nodes, interval_chart(nodes), jacobians=True)
    g = ch.node_jacobian[0]
    inner_eval = inner(StateNode(tau, Pose(ch.rot[0], ch.trans[0]), ch.bias[0]))
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
        nodes = replace(NodeArrays.stack([node]), index=np.array([self.index]))
        params = {k: np.asarray(v, dtype=float)[None] for k, v in self._params().items()}
        error, jac = self._kernel(nodes, **params, **self._shared())
        return FactorEval(error[0], ((self.index, jac[0]),), self._weight())

    def evaluate(self, nodes) -> FactorEval:
        return self.evaluate_node(nodes[self.index])


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        value = self.information
        if not (isinstance(value, (int, float, np.integer, np.floating)) and np.isfinite(value)
                and value > 0):
            raise HyperparameterError("planar lock information must be finite and positive, "
                                      f"got {value!r}")

    def _params(self):
        return {}

    def _shared(self):
        return {"bias_only": self.bias_only}

    def _weight(self):
        return self.information * np.eye(4 if self.bias_only else 7)


@dataclass(frozen=True, eq=False)
class AnchorFactor(_BatchedFactor):
    """Absolute pose-and-bias prior on one node (gauge or initial knowledge).

    Both covariances are validated and inverted once, at construction.
    """

    index: int
    pose: Pose
    bias: np.ndarray
    pose_covariance: np.ndarray
    bias_covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False)

    _kernel = staticmethod(_anchor_kernel)

    def __post_init__(self):
        _check_pose(self, "pose")
        _check_values(self, {"bias": (6,)})
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


@dataclass(frozen=True, eq=False)
class RangeFactor(_BatchedFactor):
    index: int
    landmark: np.ndarray
    measured: float
    variance: float
    information: np.ndarray = field(init=False, repr=False)

    _kernel = staticmethod(_range_kernel)

    def __post_init__(self):
        _check_values(self, {"landmark": (3,), "measured": (), "variance": ()})
        if not self.variance > 0:
            raise HyperparameterError("range variance must be positive")
        object.__setattr__(self, "information", np.array([[1.0 / self.variance]]))

    def _params(self):
        return {"landmark": self.landmark, "measured": self.measured}


@dataclass(frozen=True, eq=False)
class PoseFactor(_BatchedFactor):
    index: int
    measured: Pose
    covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False)

    _kernel = staticmethod(_pose_kernel)

    def __post_init__(self):
        _check_pose(self, "measured")
        info = _information_from_covariance(self.covariance, "pose")
        if info.shape != (6, 6):
            raise HyperparameterError("pose covariance must be 6x6")
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"meas_rot": self.measured.rotation, "meas_trans": self.measured.translation}


@dataclass(frozen=True, eq=False)
class PositionFactor(_BatchedFactor):
    index: int
    measured: np.ndarray
    covariance: np.ndarray
    information: np.ndarray = field(init=False, repr=False)

    _kernel = staticmethod(_position_kernel)

    def __post_init__(self):
        _check_values(self, {"measured": (3,)})
        info = _information_from_covariance(self.covariance, "position")
        if info.shape != (3, 3):
            raise HyperparameterError("position covariance must be 3x3")
        object.__setattr__(self, "information", info)

    def _params(self):
        return {"measured": self.measured}


@dataclass(frozen=True, eq=False)
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
    information: np.ndarray = field(init=False, repr=False)

    _kernel = staticmethod(_velocity_kernel)

    def __post_init__(self):
        _check_values(self, {"measured": (6,)} if self.input_velocity is None
                      else {"measured": (6,), "input_velocity": (6,)})
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


_BATCHED_TYPES = (RangeFactor, PlanarLockFactor, AnchorFactor, PositionFactor,
                  PoseFactor, VelocityFactor)


@dataclass(frozen=True, eq=False)
class InterpolatedFactor:
    """A one-node factor, inner, at a query time tau between nodes index and index+1.

    inner is a RangeFactor, PositionFactor, PoseFactor, VelocityFactor,
    PlanarLockFactor or AnchorFactor; its own index is not read. The state
    at tau comes from the problem's interval index; Problem checks that tau
    lies inside it. The solver linearizes the factor in an
    InterpolatedBatch, which builds its query row once. evaluate, on the
    nodes and their intervals, is a batch of one through interpolated_factor.
    """

    index: int
    tau: float
    inner: _BatchedFactor

    def __post_init__(self):
        if not is_node_index(self.index):
            raise WiringError(f"an interpolated factor needs an integer index, got {self.index!r}")
        _check_values(self, {"tau": ()})
        if type(self.inner) not in _BATCHED_TYPES:
            raise WiringError("an interpolated factor's inner must be one of "
                              f"{[t.__name__ for t in _BATCHED_TYPES]}, not {self.inner!r}")

    @property
    def indices(self):
        return (self.index, self.index + 1)

    def evaluate(self, nodes, intervals) -> FactorEval:
        return interpolated_factor(nodes[self.index], nodes[self.index + 1],
                                   intervals[self.index], self.tau, self.inner.evaluate_node,
                                   indices=self.indices)


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

    def evaluate(self, states: NodeArrays):
        """The kernel on one given state per instance."""
        return self._kernel(states, **self._args, **self._shared_args)

    def linearize(self, nodes: NodeArrays, chart=None):
        """(error (n, m), Jacobian (n, m, 12)) from the stacked states of all nodes."""
        return self.evaluate(nodes[self.index])


class InterpolatedBatch:
    """InterpolatedFactors whose inners are of one batched type.

    Their query rows are built here, once, from the problem's intervals.
    Every state is then interpolated in one chain, the inner kernel runs on
    those states, and its Jacobian is chained onto both bracketing nodes.
    index (n,) is each row's interval, node k of the pair.
    """

    def __init__(self, group, intervals: IntervalArrays):
        self.index = np.array([f.index for f in group])
        self.inner = FactorBatch([f.inner for f in group])
        self.information = self.inner.information
        self.rows = query_rows(intervals, [f.tau for f in group], self.index)

    def linearize(self, nodes: NodeArrays, chart: IntervalChart):
        """(error (n, m), Jacobian (n, m, 24)) over (node k, node k+1).

        chart is interval_chart of all nodes, with its Jacobians.
        """
        ch = chain(self.rows, nodes, chart, jacobians=True)
        error, jac = self.inner.evaluate(
            NodeArrays(self.inner.index, self.rows.tau, ch.rot, ch.trans, ch.bias))
        return error, jac @ ch.node_jacobian


def batch_factors(factors, intervals: IntervalArrays):
    """Group the batched types into FactorBatches and InterpolatedBatches.

    InterpolatedFactors are grouped by the type of their inner and read the
    problem's intervals. A group longer than CHUNK_ROWS is split. Returns
    (batches, rest). Every other factor, a custom one, is left in rest to be
    evaluated on its own.
    """
    groups, rest = {}, []
    for f in factors:
        owner = f.inner if type(f) is InterpolatedFactor else f
        if type(owner) in _BATCHED_TYPES:
            key = ((type(f), type(owner))
                   + tuple(np.asarray(v).tobytes() for v in owner._shared().values()))
            groups.setdefault(key, []).append(f)
        else:
            rest.append(f)
    batches = []
    for key, g in groups.items():
        if key[0] is InterpolatedFactor:
            # a chain's intermediates take some 10 KB a row
            batches += [InterpolatedBatch(g[lo:lo + CHUNK_ROWS], intervals)
                        for lo in range(0, len(g), CHUNK_ROWS)]
        else:
            batches.append(FactorBatch(g))
    return batches, rest
