"""Posterior queries at arbitrary times between estimation nodes.

The motion prior is Markovian in the local state gamma = (xi, psi), so the
posterior at an interior time depends only on the two bracketing nodes, the
interval's precomputed transition/integral blocks, and a conditional noise
term. The query-time gain matrices are state independent.

query_rows is the one builder of those gains: one IntervalArrays.query for
all its times, then the gains, stacked, into QueryRows. There is one
evaluation path, chain: the rows interpolated from the stacked node states
and each interval's chart (prior.interval_chart), with the node Jacobian
and covariance on request. Trajectory.query_many gathers its node hits and
runs chain over its off-node rows, a fixed-size chunk at a time, into one
stacked QueryArrays, with the exact posterior covariances from the
bracketing nodes' joint Gaussian (chain_covariance); the solver's
interpolated factor batches run it over their rows at every linearization.
Trajectory is the one posterior query API; Trajectory.query and lambda_psi
are batches of one, and factors.interpolated_factor builds its one row from
query_rows and chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HyperparameterError, IntervalTooLongError, WiringError
from .liegroup import Pose, j_vec_dx, se3_adjoint, se3_exp_jacobian
from .prior import (TIME_TOL, IntervalArrays, IntervalBlocks, IntervalChart, NodeArrays,
                    check_interval_times, interval_chart)

# off-node rows per batched chain in Trajectory.query_many and per
# interpolated factor batch
CHUNK_ROWS = 512
# rows per IntervalArrays.query in query_rows: a row's intermediates there
# take some 14 KB, more than a chain's, so a whole CHUNK_ROWS at once would
# raise the solve's peak memory
CHUNK_QUERY = 64


@dataclass(frozen=True)
class QueryResult:
    """Posterior state at one query time.

    velocity is the full body twist: the latent bias plus the input velocity
    at the query time. covariance, when present, is the 12x12 joint
    covariance of the local pose and bias perturbations, exact given the
    joint Gaussian of the bracketing nodes.
    """

    time: float
    pose: Pose
    bias: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class QueryArrays:
    """n query results, stacked, as a sequence of QueryResult rows (queried[i]).

    time (n,), the poses' rot (n, 3, 3) and trans (n, 3), bias and velocity
    (n, 6), and covariance (n, 12, 12) or None. Only Trajectory.query_many
    builds one.
    """

    time: np.ndarray
    rot: np.ndarray
    trans: np.ndarray
    bias: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray | None

    def __len__(self):
        return len(self.time)

    def __getitem__(self, i):
        return QueryResult(float(self.time[i]), Pose(self.rot[i], self.trans[i]), self.bias[i],
                           self.velocity[i],
                           None if self.covariance is None else self.covariance[i])


class QueryRows(NamedTuple):
    """Interpolation rows of n query times, each tied to one node interval.

    interval (n,) indexes the interval, so row i reads nodes interval[i]
    and interval[i] + 1; t0 and t1 (n,) are that interval's ends and
    input_full (n, 12) its full input integral. input_velocity (n, 6) is
    the input twist at tau, zero without inputs.
    """

    interval: np.ndarray
    tau: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    lam: np.ndarray
    psi_gain: np.ndarray
    q_cond: np.ndarray
    input_tau: np.ndarray
    input_full: np.ndarray
    input_velocity: np.ndarray


def query_rows(intervals: IntervalArrays, taus, k) -> QueryRows:
    """The state-independent rows of query times taus, each in its interval k, stacked.

    The gains condition the prior on both bracketing nodes:
    psi_gain = Q(tau) Phi(t1, tau)^T Q^-1, lam = Phi(tau, t0) - psi_gain Phi
    and q_cond = Q(tau) - psi_gain Phi(t1, tau) Q(tau). One
    IntervalArrays.query serves CHUNK_QUERY rows.
    """
    k, taus = np.asarray(k, dtype=int), np.asarray(taus, dtype=float)
    n = len(k)
    rows = QueryRows(k, taus, intervals.t0[k], intervals.t1[k], np.empty((n, 12, 12)),
                     np.empty((n, 12, 12)), np.empty((n, 12, 12)), np.empty((n, 12)),
                     intervals.input_full[k], np.empty((n, 6)))
    for lo in range(0, n, CHUNK_QUERY):
        at = slice(lo, lo + CHUNK_QUERY)
        qb = intervals.query(k[at], taus[at])
        psi = qb.q_tau @ np.swapaxes(qb.phi_to_end, -1, -2) @ intervals.q_full_inv[k[at]]
        q = qb.q_tau - psi @ qb.phi_to_end @ qb.q_tau
        rows.lam[at], rows.psi_gain[at] = qb.phi_from_start - psi @ intervals.phi[k[at]], psi
        rows.q_cond[at] = 0.5 * (q + np.swapaxes(q, -1, -2))
        rows.input_tau[at], rows.input_velocity[at] = qb.input_tau, qb.input_velocity
    return rows


def lambda_psi(blocks: IntervalBlocks, tau: float):
    """Interpolation gain matrices (lam, psi) for a query time."""
    rows = query_rows(blocks.arrays, [tau], [blocks.row])
    return rows.lam[0], rows.psi_gain[0]


class Chain(NamedTuple):
    """Interpolated states of stacked query rows.

    rot (n, 3, 3), trans (n, 3) and bias (n, 6) are the mean states. With
    jacobians, node_jacobian (n, 12, 24) maps the perturbations of both
    bracketing nodes, columns (pose_k, bias_k, pose_k1, bias_k1), to the
    query's, and output_map (n, 12, 12) maps d(xi_tau, psi_tau) to it.
    """

    rot: np.ndarray
    trans: np.ndarray
    bias: np.ndarray
    node_jacobian: np.ndarray | None = None
    output_map: np.ndarray | None = None


def _guard_chart(rows: QueryRows, xi):
    """Raise for the lowest interval, then earliest time, whose chart left its range."""
    ang = np.linalg.norm(xi[:, 3:], axis=-1)
    bad = np.flatnonzero(ang >= np.pi)
    if len(bad):
        i = bad[np.lexsort((rows.tau[bad], rows.interval[bad]))[0]]
        raise IntervalTooLongError(
            f"local chart left its valid range on interval {rows.interval[i]} "
            f"[{rows.t0[i]:.6g}, {rows.t1[i]:.6g}] s at t = {rows.tau[i]:.6g} s "
            f"(|xi_ang| = {ang[i]:.3f} >= pi); shorten the interval")


def chain(rows: QueryRows, nodes: NodeArrays, chart: IntervalChart, *,
          jacobians: bool = False) -> Chain:
    """Interpolate every row from its two bracketing nodes.

    nodes holds all K node states and chart the K-1 interval charts from
    interval_chart. The caller has checked the node times against the rows'
    intervals (check_interval_times), once: Trajectory and the solver at
    construction, factors.interpolated_factor per call. Each row's local
    twist xi gives exp(xi) and J(xi) from one se3_exp_jacobian pass.
    Perturbation conventions match the factors and solver: pose updates
    multiply on the left, T <- exp(delta) T, and biases update additively.
    """
    k = rows.interval
    lam_bias = rows.lam[:, :, 6:]
    gamma = (rows.input_tau + np.einsum("nij,nj->ni", lam_bias, nodes.bias[k])
             + np.einsum("nij,nj->ni", rows.psi_gain, chart.gamma[k] - rows.input_full))
    xi, psi = gamma[:, :6], gamma[:, 6:]
    _guard_chart(rows, xi)
    exp_rot, exp_trans, j_tau = se3_exp_jacobian(xi)
    rot = exp_rot @ nodes.rot[k]
    trans = np.einsum("nij,nj->ni", exp_rot, nodes.trans[k]) + exp_trans
    bias = np.einsum("nij,nj->ni", j_tau, psi)
    if not jacobians:
        return Chain(rot, trans, bias)

    h = np.zeros((len(k), 12, 12))
    h[:, :6, :6] = j_tau
    h[:, 6:, :6] = j_vec_dx(xi, psi)
    h[:, 6:, 6:] = j_tau
    # gamma_tau depends on node k through its bias and on the far node
    # through the interval chart
    dgamma = np.empty((len(k), 12, 24))
    dgamma[:, :, :6] = rows.psi_gain @ chart.jac_k[k]
    dgamma[:, :, 6:12] = lam_bias
    dgamma[:, :, 12:] = rows.psi_gain @ chart.jac_k1[k]
    g = h @ dgamma
    # the query chart is anchored at node k, so its motion enters directly
    g[:, :6, :6] += se3_adjoint(exp_rot, exp_trans)
    return Chain(rot, trans, bias, g, h)


def chain_covariance(rows: QueryRows, ch: Chain, covariances, cross_covariances):
    """Posterior covariances (n, 12, 12) of the rows from validated node covariances.

    The chain, with its Jacobians, maps each row's bracketing nodes' joint
    Gaussian: the marginals covariances (K, 12, 12) and cross_covariances
    (K-1, 12, 12), cov(node_k, node_k+1), both in local coordinates. A
    caller with marginals only passes zero cross-covariances.
    """
    k = rows.interval
    cross = cross_covariances[k]
    joint = np.empty((len(k), 24, 24))
    joint[:, :12, :12] = covariances[k]
    joint[:, 12:, 12:] = covariances[k + 1]
    joint[:, :12, 12:] = cross
    joint[:, 12:, :12] = np.swapaxes(cross, -1, -2)
    g, h = ch.node_jacobian, ch.output_map
    cov = (g @ joint @ np.swapaxes(g, -1, -2)
           + h @ rows.q_cond @ np.swapaxes(h, -1, -2))
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _check_stack(stack, count, what):
    """stack as a finite (count, 12, 12) float array, else HyperparameterError naming what."""
    try:
        stack = np.asarray(stack, dtype=float)
    except ValueError:
        raise HyperparameterError(f"{what} must all be 12x12") from None
    if stack.shape != (count, 12, 12) or not np.all(np.isfinite(stack)):
        raise HyperparameterError(
            f"{what} must be a finite ({count}, 12, 12) stack, got shape {stack.shape}")
    return stack


class Trajectory:
    """Continuous read-only view of a solved trajectory.

    Wraps the node estimates, stacked once (NodeArrays.stack), and the
    intervals, stacked once (IntervalArrays.stack); queries between nodes
    interpolate the posterior, queries at node times return the node values
    and the input twist there; query_many stacks them in a QueryArrays.
    Covariances are attached when the solver's node covariances and
    adjacent-node cross-covariances are supplied, both or neither (one
    alone raises WiringError); they are validated once, here, rather than
    on every query. A caller with marginals only passes zero
    cross-covariances. Each interval's chart is computed once, at the first
    query off the nodes, and kept: the trajectory never changes.
    """

    def __init__(self, nodes, blocks_list, covariances=None, cross_covariances=None):
        state = NodeArrays.stack(nodes)
        k = len(state)
        if k < 2 or len(blocks_list) != k - 1:
            raise WiringError("need K nodes and K-1 interval blocks")
        blocks = IntervalArrays.stack(blocks_list)
        check_interval_times(state.time, blocks.t0, blocks.t1)
        if (covariances is None) != (cross_covariances is None):
            raise WiringError("need the node covariances and the cross-covariances together")
        if covariances is not None:
            if len(covariances) != k or len(cross_covariances) != k - 1:
                raise WiringError("need one covariance per node and one cross-covariance "
                                  "per interval")
            covariances = _check_stack(covariances, k, "node covariances")
            cross_covariances = _check_stack(cross_covariances, k - 1, "cross-covariances")
            eigs = np.linalg.eigvalsh(covariances)
            if (not np.allclose(covariances, np.swapaxes(covariances, -1, -2), atol=1e-8)
                    or np.any(eigs[:, 0] < -1e-9 * np.maximum(eigs[:, -1], 1.0))):
                raise HyperparameterError("node covariances must be symmetric positive "
                                          "semidefinite")
        self.blocks = blocks
        self.covariances = covariances
        self.cross_covariances = cross_covariances
        self._state = state
        self._chart = None
        # the input twist at each node, right-continuous: from the first
        # segment of the interval that starts there, the last one at the end
        self._node_input = blocks.profile.values_at(
            state.time, np.append(blocks.offsets[:-1], blocks.offsets[-1] - 1))[0]

    @property
    def start(self):
        return float(self._state.time[0])

    @property
    def end(self):
        return float(self._state.time[-1])

    def query(self, tau: float, *, with_covariance: bool = False) -> QueryResult:
        queried = self.query_many([tau], with_covariance=with_covariance)
        if len(queried) != 1:
            raise DomainError(f"query needs one time, got {tau!r}")
        return queried[0]

    def query_many(self, times, *, with_covariance: bool = False) -> QueryArrays:
        """The posterior at each time, stacked; the off-node rows in batched chains.

        The off-node rows run CHUNK_ROWS at a time, which bounds the
        arrays a chain holds however many times are asked for. Times that
        are not numbers, or not within the trajectory, raise DomainError.
        """
        try:
            taus = np.asarray(times, dtype=float).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"query times must be numbers, got {times!r}") from None
        state = self._state
        # interval k holds [t_k, t_k+1) and the last one also its end, so k
        # counts the interior nodes at or before tau
        k = np.searchsorted(state.time[1:-1], taus, side="right")
        nearest = np.where(np.abs(taus - state.time[k]) <= np.abs(state.time[k + 1] - taus),
                           k, k + 1)
        hit = np.abs(state.time[nearest] - taus) <= TIME_TOL
        with_cov = with_covariance and self.covariances is not None
        # every row starts as its nearest node; the off-node rows are then overwritten
        out = QueryArrays(np.where(hit, state.time[nearest], taus), state.rot[nearest],
                          state.trans[nearest], state.bias[nearest],
                          state.bias[nearest] + self._node_input[nearest],
                          self.covariances[nearest] if with_cov else None)
        off = np.flatnonzero(~hit)
        if len(off) and self._chart is None:
            self._chart = interval_chart(state)
        for lo in range(0, len(off), CHUNK_ROWS):
            part = off[lo:lo + CHUNK_ROWS]
            rows = query_rows(self.blocks, taus[part], k[part])
            ch = chain(rows, state, self._chart, jacobians=with_cov)
            out.rot[part], out.trans[part], out.bias[part] = ch.rot, ch.trans, ch.bias
            out.velocity[part] = ch.bias + rows.input_velocity
            if with_cov:
                out.covariance[part] = chain_covariance(rows, ch, self.covariances,
                                                        self.cross_covariances)
        return out
