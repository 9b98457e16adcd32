"""MAP batch estimation over the block-tridiagonal factor graph.

A Problem holds the nodes, stacked once into a NodeArrays, the prior's
intervals between consecutive nodes, stacked once into an IntervalArrays,
and the measurement factors, and checks them when it is built. The motion
prior chains adjacent nodes and every measurement factor touches one node
or an adjacent pair, so the Gauss-Newton normal equations stay block
tridiagonal. The solver carries that NodeArrays across iterations, to
Solution.nodes. Each step solves the current system, updates every node at
once, and linearizes the trial state in one pass, whose cost decides
acceptance and whose accepted system is the next step's. The final state's
system, kept from that pass, gives the covariances. Levenberg-style
diagonal damping acts only after a rejection.

Linearization is batched by factor type. Each pass computes the chart of
every node interval once; the prior errors of all intervals come from it in
one prior_factor_batch call, which reads the Problem's IntervalArrays as
it is. Each built-in one-node type (range, position, pose,
velocity, planar lock, anchor) is one kernel call. Interpolated factors,
which wrap such a type, are grouped the same way: their query rows are built
once per solve, and one batched interpolation chain over them, reading the
same interval charts, feeds the inner kernel. Custom factors are evaluated
one by one, on the state itself, whose nodes[i] is a StateNode. Every batch
and every custom factor gives stacked rows (index, error, Jacobian,
information), and one scatter adds them into D, E and g. The block LDL^T
sweep stores the inverse pivot blocks S_i^-1, one inverse per block, so the
forward-backward solve and the Takahashi recursion for the posterior
covariance blocks are plain products.

Coarse-to-fine start: a problem may carry a coarse problem over the same
span with fewer nodes (Problem.coarse). solve runs it first through the
same iterations, without the final factorization and covariances, and
queries its trajectory at the dense node times for the dense start. When
the coarse solve raises, does not converge, or a query leaves the local
chart, the dense solve starts from the given nodes instead, exactly as
without a coarse problem. Solution.start records which start was used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import factors as _factors
from .errors import DegenerateInputError, EstimationError, GaugeFreedomError, WiringError
from .interpolation import Trajectory
from .liegroup import se3_exp, so3_project
from .prior import TIME_TOL, IntervalArrays, NodeArrays, check_interval_times, interval_chart

# factors that tie the trajectory to the world frame, on a node or, wrapped
# in an InterpolatedFactor, between two
_ABSOLUTE_FACTORS = (_factors.RangeFactor, _factors.PoseFactor,
                     _factors.PositionFactor, _factors.AnchorFactor)

_REJECT_LIMIT = 50
_INITIAL_DAMPING = 0.0
_DAMPING_GROWTH = 10.0
_RELATIVE_COST_TOLERANCE = 1e-8
_STEP_NORM_TOLERANCE = 1e-10
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class Solution:
    """Posterior means (nodes, a NodeArrays), covariance blocks, and solve diagnostics.

    iterations, cost_history and cost_evaluations belong to the solve of
    the given problem. cost_evaluations counts its trial states, each
    linearized once: the accepted steps plus the rejected ones that got as
    far as a trial. start is "coarse" when its nodes were seeded from the
    coarse problem's solution, "given" when the solve began at
    problem.nodes; coarse_iterations and coarse_cost_evaluations count the
    coarse solve's, 0 without one.
    """

    nodes: NodeArrays
    node_covariances: np.ndarray  # (K, 12, 12)
    cross_covariances: np.ndarray  # (K-1, 12, 12), cov(node_k, node_k+1)
    cost_history: tuple
    converged: bool
    iterations: int
    start: str = "given"
    coarse_iterations: int = 0
    cost_evaluations: int = 0
    coarse_cost_evaluations: int = 0


class Problem:
    """Factor graph for one batch solve: nodes, prior intervals, measurements.

    nodes, StateNodes or a NodeArrays, are stacked once (NodeArrays.stack).
    blocks holds the K-1 IntervalBlocks of the input-driven prior, interval
    k between nodes k and k+1, or their IntervalArrays; they are stacked
    once too (IntervalArrays.stack), and are the one prior that a solve
    reads, InterpolatedFactors included. All wiring is checked here, once:
    the node times increase, each interval's ends sit at the node times,
    every measurement factor touches one node or an adjacent pair, by
    integer node indices (NumPy integers count, bools do not), and each
    InterpolatedFactor's time lies inside its interval. Each failure raises
    WiringError; a node whose time, pose or bias is not finite raises
    DegenerateInputError, and intervals of different Qc raise
    HyperparameterError. coarse, when given, is a problem over the same time
    span with fewer nodes whose solution seeds this one's start (see solve).
    """

    def __init__(self, nodes, blocks, measurement_factors=(), coarse: "Problem | None" = None):
        nodes = NodeArrays.stack(nodes)
        if len(nodes) < 2:
            raise WiringError("need at least two nodes")
        times = nodes.time
        bad = np.flatnonzero(~np.isfinite(np.column_stack(
            [times, nodes.rot.reshape(-1, 9), nodes.trans, nodes.bias])).all(axis=1))
        if len(bad):
            raise DegenerateInputError(f"node {bad[0]} (t = {times[bad[0]]:.6g} s) has a "
                                       "non-finite time, pose or bias")
        if np.any(np.diff(times) <= 0):
            raise WiringError("node times must be strictly increasing")
        blocks = IntervalArrays.stack(blocks)
        if len(blocks) != len(nodes) - 1:
            raise WiringError("need exactly one IntervalBlocks per adjacent node pair")
        check_interval_times(times, blocks.t0, blocks.t1)
        measurement_factors = list(measurement_factors)
        for n, f in enumerate(measurement_factors):
            try:
                idx = tuple(f.indices)
            except (AttributeError, TypeError):
                raise WiringError(f"measurement factor {n} ({type(f).__name__}) has no node "
                                  "indices") from None
            if not all(_factors.is_node_index(i) for i in idx):
                raise WiringError(f"measurement factor {n} ({type(f).__name__}) has node "
                                  f"indices {idx!r}, not all integers")
            if any(i < 0 or i >= len(nodes) for i in idx):
                raise WiringError("measurement factor references a missing node")
            if len(idx) == 2 and idx[1] != idx[0] + 1:
                raise WiringError("measurement factors may couple only adjacent nodes")
            if len(idx) > 2:
                raise WiringError("factors coupling more than two nodes break the band structure")
            if isinstance(f, _factors.InterpolatedFactor):
                t0, t1 = blocks.t0[f.index], blocks.t1[f.index]
                if not t0 - TIME_TOL <= f.tau <= t1 + TIME_TOL:
                    raise WiringError(f"measurement factor {n} (InterpolatedFactor) at t = "
                                      f"{f.tau:.6g} s lies outside its interval {f.index}, "
                                      f"[{t0:.6g}, {t1:.6g}] s")
        if coarse is not None and (
                abs(coarse.nodes.time[0] - times[0]) > TIME_TOL
                or abs(coarse.nodes.time[-1] - times[-1]) > TIME_TOL):
            raise WiringError("the coarse problem must span the same times")
        self.nodes = nodes
        self.blocks = blocks
        self.measurement_factors = measurement_factors
        self.coarse = coarse

    def gauge_factors(self):
        """The one gauge rule: a tight anchor on node 0 unless a range, pose, position or
        anchor factor, on a node or interpolated, ties the trajectory to the world."""
        measured = [f.inner if isinstance(f, _factors.InterpolatedFactor) else f
                    for f in self.measurement_factors]
        if any(isinstance(f, _ABSOLUTE_FACTORS) for f in measured):
            return []
        first = self.nodes[0]
        return [_factors.AnchorFactor(0, first.pose, first.bias.copy(),
                                      1e-12 * np.eye(6), 1e-12 * np.eye(6))]


class _Linearizer:
    """Linearizes a state: its cost and block-tridiagonal normal equations.

    The prior's intervals come stacked from the Problem, and the batched
    factor types, interpolated ones included, are grouped once; Problem has
    checked every time, and a step never changes one. A custom measurement factor,
    in others, is evaluated on its own. assemble is the one linearization:
    each pass computes every interval's chart once, for the prior and the
    interpolated batches alike.
    """

    def __init__(self, problem: Problem):
        self.k = len(problem.nodes)
        self.batches, self.others = _factors.batch_factors(
            list(problem.measurement_factors) + problem.gauge_factors(), problem.blocks)
        self.prior = problem.blocks

    def _add_priors(self, state, chart, d, e, g) -> float:
        """Adds the prior factors' blocks in place; returns their cost."""
        p = _factors.prior_factor_batch(state, self.prior, chart=chart)
        err, info, j_k, j_k1 = p["error"], p["info"], p["j_k"], p["j_k1"]
        w_k = info @ j_k
        w_k1 = info @ j_k1
        d[:-1] += np.einsum("nji,njl->nil", j_k, w_k)
        d[1:] += np.einsum("nji,njl->nil", j_k1, w_k1)
        e += np.einsum("nji,njl->nil", j_k1, w_k)
        we = np.einsum("nij,nj->ni", info, err)
        g[:-1] -= np.einsum("nji,nj->ni", j_k, we)
        g[1:] -= np.einsum("nji,nj->ni", j_k1, we)
        return 0.5 * float(np.einsum("ni,nij,nj->", err, info, err))

    def _rows(self, state, chart):
        """Stacked (index, error, Jacobian, information) of each batch and custom factor.

        A Jacobian spans node index, or nodes (index, index + 1).
        """
        for batch in self.batches:
            yield (batch.index, *batch.linearize(state, chart), batch.information)
        for f in self.others:
            ev = f.evaluate(state)
            blocks = sorted(ev.jacobians, key=lambda ij: ij[0])
            yield (np.array([blocks[0][0]]), ev.error[None],
                   np.concatenate([jac for _, jac in blocks], axis=-1)[None],
                   ev.information[None])

    def assemble(self, state: NodeArrays):
        """Returns (cost, D diagonal blocks, E subdiagonal blocks, gradient)."""
        k = self.k
        d = np.zeros((k, 12, 12))
        e = np.zeros((k - 1, 12, 12))
        g = np.zeros((k, 12))
        chart = interval_chart(state)
        cost = self._add_priors(state, chart, d, e, g)

        for index, err, jac, info in self._rows(state, chart):
            jac_t = np.swapaxes(jac, -1, -2)
            we = np.einsum("nij,nj->ni", info, err)
            cost += 0.5 * float(np.einsum("ni,ni->", err, we))
            hess = jac_t @ info @ jac
            grad = -np.einsum("nij,nj->ni", jac_t, we)
            for j in range(jac.shape[-1] // 12):
                cols = slice(12 * j, 12 * j + 12)
                np.add.at(d, index + j, hess[:, cols, cols])
                np.add.at(g, index + j, grad[:, cols])
            if jac.shape[-1] == 24:
                np.add.at(e, index, hess[:, 12:, :12])
        return cost, d, e, g


class _PivotError(np.linalg.LinAlgError):
    """A pivot block of the sweep that is not positive definite."""

    def __init__(self, block):
        super().__init__(f"pivot block {block} is not positive definite")
        self.block = block


def _first_indefinite(s_inv) -> int:
    """Index of the first inverse pivot block that is not finite and positive definite."""
    for i, s in enumerate(s_inv):
        if not np.all(np.isfinite(s)):
            return i
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return i
    return len(s_inv) - 1


def _tridiag_factor(d, e, damping):
    """Block LDL^T sweep; returns the inverse pivot blocks S_i^-1.

    S_0 = D_0 and S_i = D_i - E_{i-1} S_{i-1}^-1 E_{i-1}^T, one inverse per
    block. Raises _PivotError, naming the first block, unless every S_i is
    positive definite, checked in one batched Cholesky of the inverses (S is
    positive definite exactly when S^-1 is).
    """
    k = len(d)
    s_inv = np.empty_like(d)
    if damping > 0.0:
        # scale-invariant damping; the absolute floor covers zero diagonal entries
        d = d.copy()
        idx = np.arange(12)
        d[:, idx, idx] += damping * d[:, idx, idx] + 1e-12
    for i in range(k):
        s = d[i] if i == 0 else d[i] - e[i - 1] @ s_inv[i - 1] @ e[i - 1].T
        try:
            s_inv[i] = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            raise _PivotError(i) from None
    # an overflowed sweep can pass the Cholesky check with NaNs, so check first
    if np.all(np.isfinite(s_inv)):
        try:
            np.linalg.cholesky(s_inv)
            return s_inv
        except np.linalg.LinAlgError:
            pass
    raise _PivotError(_first_indefinite(s_inv))


def _tridiag_solve(s_inv, e, g):
    """Solve the block-tridiagonal system from its inverse pivot blocks."""
    k = len(s_inv)
    gain = e @ s_inv[:-1]  # E_i S_i^-1
    z = np.empty_like(g)
    z[0] = g[0]
    for i in range(1, k):
        z[i] = g[i] - gain[i - 1] @ z[i - 1]
    delta = np.empty_like(g)
    delta[k - 1] = s_inv[k - 1] @ z[k - 1]
    for i in range(k - 2, -1, -1):
        delta[i] = s_inv[i] @ (z[i] - e[i].T @ delta[i + 1])
    return delta


def _takahashi(s_inv, e):
    """Marginal covariance blocks and adjacent cross blocks from the factorization."""
    k = len(s_inv)
    p = np.empty_like(s_inv)
    cross = np.empty_like(e)
    u = s_inv[:-1] @ np.swapaxes(e, -1, -2)  # S_i^-1 E_i^T
    p[k - 1] = s_inv[k - 1]
    for i in range(k - 2, -1, -1):
        cross[i] = -u[i] @ p[i + 1]
        p[i] = s_inv[i] - cross[i] @ u[i].T
    p = 0.5 * (p + np.swapaxes(p, -1, -2))
    return p, cross


def _apply_step(state: NodeArrays, delta) -> NodeArrays:
    """Manifold update of every node in one batch.

    Poses update on the left, T <- exp(delta) T, with the rotations
    projected back onto SO(3); biases add.
    """
    d_rot, d_trans = se3_exp(delta[:, :6])
    return replace(state, rot=so3_project(d_rot @ state.rot),
                   trans=np.einsum("kij,kj->ki", d_rot, state.trans) + d_trans,
                   bias=state.bias + delta[:, 6:])


class _Run(NamedTuple):
    """A Gauss-Newton run: its final state, with that state's D and E blocks."""

    state: NodeArrays
    history: list
    converged: bool
    iterations: int
    evaluations: int
    d: np.ndarray
    e: np.ndarray


def _iterate(lin: _Linearizer, state: NodeArrays) -> _Run:
    """Damped Gauss-Newton from state.

    lin.assemble linearizes the start and each trial state once: the
    trial's cost decides acceptance, and an accepted trial's system is the
    next step's. evaluations counts the trials. A trial step at which a
    factor raises is rejected like one that raises the cost. A run that
    exhausts _MAX_ITERATIONS or cannot decrease the cost at any damping
    returns the best state found with converged False.
    """
    lam = _INITIAL_DAMPING
    converged = False
    iterations = evaluations = 0

    cost, d, e, g = lin.assemble(state)
    history = [cost]
    for _ in range(_MAX_ITERATIONS):
        rejected = 0
        while rejected <= _REJECT_LIMIT:
            try:
                s = _tridiag_factor(d, e, lam)
            except np.linalg.LinAlgError:
                # indefinite at this damping; a singular problem surfaces at the
                # final undamped factorization instead
                lam = 1e-6 if lam == 0.0 else lam * _DAMPING_GROWTH
                rejected += 1
                continue
            delta = _tridiag_solve(s, e, g)
            candidate = _apply_step(state, delta)
            evaluations += 1
            try:
                trial = lin.assemble(candidate)
            except EstimationError:
                # a factor that cannot be evaluated at the trial state (e.g. a
                # rotation log near pi); every factor already evaluated at the
                # current state, so a wiring or setting error cannot land here
                trial = (np.inf,)
            if trial[0] <= cost + 1e-12 * max(1.0, cost):
                break
            lam = 1e-6 if lam == 0.0 else lam * _DAMPING_GROWTH
            rejected += 1
        else:
            # no damping gave an acceptable step
            break
        new_cost, d, e, g = trial
        state = candidate
        history.append(new_cost)
        iterations += 1
        lam = 0.0 if lam < 1e-12 else lam / _DAMPING_GROWTH
        small_change = abs(cost - new_cost) <= _RELATIVE_COST_TOLERANCE * max(cost, 1e-300)
        small_step = float(np.linalg.norm(delta)) <= _STEP_NORM_TOLERANCE
        cost = new_cost
        if small_change or small_step:
            converged = True
            break
    return _Run(state, history, converged, iterations, evaluations, d, e)


def _coarse_start(coarse: Problem, state: NodeArrays):
    """(seed or None, (coarse iterations, coarse trial linearizations)).

    The coarse problem runs through the same iterations, without
    covariances; its posterior mean, queried at the times of state, the
    given dense nodes, is the seed. None when the coarse solve raises, does
    not converge, or a query leaves the local chart.
    """
    counts = (0, 0)
    try:
        run = _iterate(_Linearizer(coarse), coarse.nodes)
        counts = (run.iterations, run.evaluations)
        if not run.converged:
            return None, counts
        trajectory = Trajectory(run.state, coarse.blocks)
        queried = trajectory.query_many(state.time)
    except EstimationError:
        return None, counts
    return replace(state, rot=queried.rot, trans=queried.trans, bias=queried.bias), counts


def solve(problem: Problem) -> Solution:
    """Damped Gauss-Newton to convergence, then covariance extraction.

    With problem.coarse set, the coarse problem is solved first and its
    trajectory, queried at the node times, is the start (start "coarse");
    when that solve raises, does not converge, or its queries leave the
    local chart, the solve starts from problem.nodes (start "given"), just
    as without a coarse problem. The covariances come from the system
    assembled at the final state during the iterations. Raises
    GaugeFreedomError, naming the first node whose pivot block is not
    positive definite, when the undamped normal equations at the solution
    are singular. A run that exhausts _MAX_ITERATIONS or cannot decrease the
    cost at any damping returns the best state found with converged=False.
    """
    lin = _Linearizer(problem)
    state, start, coarse = problem.nodes, "given", (0, 0)
    if problem.coarse is not None:
        seed, coarse = _coarse_start(problem.coarse, state)
        if seed is not None:
            state, start = seed, "coarse"
    run = _iterate(lin, state)

    try:
        s = _tridiag_factor(run.d, run.e, 0.0)
    except _PivotError as err:
        raise GaugeFreedomError(
            f"normal equations are singular or numerically indefinite at node "
            f"{err.block} (t = {run.state.time[err.block]:.6g} s) at the solution; "
            "covariance undefined (add measurements or an AnchorFactor)") from None
    covariances, cross = _takahashi(s, run.e)
    return Solution(run.state, covariances, cross, tuple(run.history),
                    run.converged, run.iterations, start, coarse[0],
                    run.evaluations, coarse[1])
