"""Motion prior: local linearized dynamics, transitions, and noise integrals.

Between two estimation nodes the state is expressed in local coordinates
gamma(t) = [xi(t), psi(t)] anchored at the earlier node: xi is the pose's
local twist and psi the velocity bias mapped through the inverse left
Jacobian. Process noise enters the bias channel only, with power spectral
density Qc. With piecewise-linear inputs u(s) = [v(s), a(s)] the
linearized system matrix is linear in time on each segment, A(s) = B + C s,
and so is Van Loan's (1978) augmented generator, whose transition has
the transition Phi, the input integral int Phi(t, s) u(s) ds and the noise
integral Q as blocks. A transition over a window of a segment is a product of
three uniform steps of the sixth-order Blanes-Casas-Ros Magnus scheme, so
its error scales as the window length to the seventh power and stays below
1e-6 relative on 0.5 s windows with twist norms up to 2. A segment may be
of any length: a span of it is the product of ceil(span / 0.5 s) equal
windows, so the contract holds per 0.5 s window.

precompute_intervals cuts one input profile at the node times, since each
interval's blocks depend only on the inputs between its nodes (Barfoot, Tong
and Sarkka 2014), and builds every interval in one pass into one
IntervalArrays whose rows are IntervalBlocks. Input-driven segments are
integrated CHUNK_SEGMENTS at a time, zero-input intervals take the
constant-velocity closed forms, and the segment pieces are composed, stacked
across intervals, into the (transition, input integral, noise covariance)
triples from each interval's start to every later knot. IntervalArrays.query
answers query times in one stacked pass: each looks up the triple at its
segment's start and composes the piece of its segment up to it, cut by the
same _pieces as the build. IntervalArrays.coarsen composes consecutive
intervals from their triples, so a coarser node grid over the same inputs
needs no second integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateInputError, DomainError, HyperparameterError,
                     IllConditionedRotationError, IntervalTooLongError, WiringError)
from .inputs import InputProfile, InputSegment
from .liegroup import (Pose, curlywedge, j_vec_dx, se3_adjoint, se3_exp_jacobian,
                       se3_log_jacobian_inv)

# Higham (2005): the largest 1-norm at which the [m/m] Pade approximant,
# unscaled, has a backward error below double-precision unit roundoff
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
}
_PADE13_THETA = 5.371920351148152
_PADE13_B = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
])
# the 1-norms at which expm_ss moves to the next Pade degree or scaling
_PADE_BOUNDS = np.array([theta for _, theta in _PADE_THETA]
                        + [_PADE13_THETA * 2.0 ** s for s in range(64)])
# Uniform sixth-order Magnus steps per transition window. A fixed count keeps
# the error scaling as the seventh power of the window length. On 0.5 s
# segments with twist norms up to 2 the worst error against dense RK4 is
# 5.7e-5 with one step, 8.9e-7 with two and 7.8e-8 with three, against a
# 1e-6 contract.
_MAGNUS_SUBSTEPS = 3
# the longest transition window; longer spans are cut into equal ones
_MAGNUS_WINDOW = 0.5
# segments per stacked _segment_pieces call of the interval build; a 0.5 s
# window's intermediates take some 0.2 MiB, so the build's peak stays flat
CHUNK_SEGMENTS = 16
# two times closer than this are the same node time
TIME_TOL = 1e-9
_EYE12 = np.eye(12)


def _floats(value, what, error):
    """value as a float array, else error naming what and the value.

    A string, a ragged list, a mapping or an integer too large for a float
    is not one.
    """
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be numeric, got {value!r}") from None


def expm_ss(A):
    """Matrix exponential by Higham's (2005) scaling and squaring.

    Accepts a single (n, n) matrix or a stacked (..., n, n) batch. The batch
    shares one Pade degree, the lowest of 3, 5, 7, 9 and 13 whose theta
    bounds its largest 1-norm, and is scaled by a power of two only above
    theta_13. _transitions batches only windows whose norms fall between the
    same two _PADE_BOUNDS, so each window comes out as its own call gave it.
    Raises DomainError for a matrix that is not finite.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    if single:
        A = A[None]
    norm = np.max(np.sum(np.abs(A), axis=-2))
    if not np.isfinite(norm):
        raise DomainError(f"matrix exponential of a matrix that is not finite (1-norm {norm})")
    eye = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    degree = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    s = 0
    if degree < 13:
        b = _PADE_B[degree]
        even = [eye, A @ A]  # I, A^2, A^4, ...
        while len(even) <= degree // 2:
            even.append(even[-1] @ even[1])
        U = A @ sum(b[2 * i + 1] * p for i, p in enumerate(even))
        V = sum(b[2 * i] * p for i, p in enumerate(even))
    else:
        s = max(0, int(np.ceil(np.log2(norm / _PADE13_THETA))))
        As = A / (2.0 ** s)
        b = _PADE13_B
        A2 = As @ As
        A4 = A2 @ A2
        A6 = A2 @ A4
        U = As @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                  + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    F = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        F = F @ F
    return F[0] if single else F


@dataclass(frozen=True)
class PriorHyper:
    """Power spectral density of the bias-channel white noise, 6x6 SPD."""

    qc: np.ndarray
    qc_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qc = np.atleast_1d(_floats(self.qc, "Qc", HyperparameterError))
        if qc.ndim == 1:
            if qc.shape != (6,):
                raise HyperparameterError("diagonal Qc must have 6 entries")
            qc = np.diag(qc)
        if qc.shape != (6, 6) or not np.allclose(qc, qc.T, atol=1e-12):
            raise HyperparameterError("Qc must be a symmetric 6x6 matrix")
        if not np.all(np.isfinite(qc)):
            raise HyperparameterError("Qc must be finite")
        try:
            np.linalg.cholesky(qc)
        except np.linalg.LinAlgError:
            raise HyperparameterError("Qc must be positive definite") from None
        object.__setattr__(self, "qc", qc)
        object.__setattr__(self, "qc_inv", np.linalg.inv(qc))


@dataclass(frozen=True)
class StateNode:
    """Estimation node: time stamp, pose, and velocity bias (body twist)."""

    time: float
    pose: Pose
    bias: np.ndarray

    def __post_init__(self):
        bias = np.asarray(self.bias, dtype=float)
        if bias.shape != (6,):
            raise WiringError("node bias must be a 6-vector")
        object.__setattr__(self, "bias", bias)


@dataclass(frozen=True, eq=False)
class NodeArrays:
    """Node states, stacked, as a sequence of StateNodes: the one node container.

    index (n,) holds the node indices that errors name, time (n,) their
    times; rot (n, 3, 3), trans (n, 3) and bias (n, 6) the states. nodes[i]
    is row i as a StateNode, and iterating yields the rows in order; a
    slice or an index array gives a NodeArrays that keeps its node indices.
    """

    index: np.ndarray
    time: np.ndarray
    rot: np.ndarray
    trans: np.ndarray
    bias: np.ndarray

    @classmethod
    def stack(cls, nodes):
        """StateNodes, or a NodeArrays, as rows numbered 0 to K-1."""
        if isinstance(nodes, NodeArrays):
            return replace(nodes, index=np.arange(len(nodes)))
        return cls(np.arange(len(nodes)),
                   np.array([n.time for n in nodes], dtype=float),
                   np.array([n.pose.rotation for n in nodes], dtype=float),
                   np.array([n.pose.translation for n in nodes], dtype=float),
                   np.array([n.bias for n in nodes], dtype=float))

    def __len__(self):
        return len(self.time)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return StateNode(float(self.time[rows]), Pose(self.rot[rows], self.trans[rows]),
                             self.bias[rows])
        return NodeArrays(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class SegmentCoeffs:
    """Generator linear on one input segment, b + c s with s local in [0, duration]."""

    b: np.ndarray
    c: np.ndarray
    duration: float


def _generator(profile: InputProfile, rows, qc):
    """Van Loan's (1978) 25x25 generators b + c s on the given rows of profile, stacked.

    M(s) = [[A(s), L Qc L^T, u(s)], [0, -A(s)^T, 0], [0, 0, 0]], where A(s)
    is the local system matrix, u(s) = [v(s), a(s)] the inputs and L picks
    the bias rows. Returns b and c, (m, 25, 25) each.
    """
    v0, a0 = profile.v0[rows], profile.a0[rows]
    dt = (profile.t1[rows] - profile.t0[rows])[:, None]
    b, c = np.zeros((2, len(dt), 25, 25))
    b[:, :6, 6:12] = np.eye(6)
    b[:, 6:12, 18:24] = qc
    for out, v, a in ((b, v0, a0), (c, (profile.v1[rows] - v0) / dt, (profile.a1[rows] - a0) / dt)):
        out[:, :6, :6] = 0.5 * curlywedge(v)
        out[:, 6:12, :6] = 0.5 * curlywedge(a)
        out[:, 6:12, 6:12] = -0.5 * curlywedge(v)
        out[:, 12:24, 12:24] = -np.swapaxes(out[:, :12, :12], -1, -2)
        out[:, :12, 24] = np.concatenate([v, a], axis=-1)
    return b, c


def system_matrix_coeffs(segment: InputSegment) -> SegmentCoeffs:
    """Constant and slope parts of the local system matrix on one segment."""
    b, c = _generator(InputProfile((segment,)), [0], np.zeros((6, 6)))
    return SegmentCoeffs(b[0, :12, :12].copy(), c[0, :12, :12].copy(), segment.duration)


def _magnus_argument(b, c, ta, tb):
    """Sixth-order Magnus argument for one step from ta to tb (segment-local times).

    The Blanes-Casas-Ros (2000) scheme on the three Gauss-Legendre points
    c = 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of the step h = tb - ta:

        a1 = h A2,  a2 = sqrt(15) h / 3 (A3 - A1),  a3 = 10 h / 3 (A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240.

    With A(s) = B + C s the point differences are exact, a2 = h^2 C and
    a3 = 0. The local error is O(h^7). b and c (..., n, n) broadcast
    against ta and tb (...); where c is zero, Omega is a1.
    """
    h = (tb - ta)[..., None, None]
    a1 = h * (b + c * (0.5 * (ta + tb))[..., None, None])
    a2 = h * h * c
    c1 = a1 @ a2 - a2 @ a1
    c2 = -(a1 @ c1 - c1 @ a1) / 60.0
    x = c1 - 20.0 * a1
    y = a2 + c2
    return np.where(np.any(c, axis=(-2, -1))[..., None, None],
                    a1 + (x @ y - y @ x) / 240.0, a1)


def _transitions(b, c, ta, tb):
    """Transitions of windows with generators b, c (W, n, n) from ta to tb (W,), local times.

    Each window is split into _MAGNUS_SUBSTEPS uniform sixth-order steps whose
    exponentials, batched by Pade degree and scaling (_PADE_BOUNDS), are
    multiplied in time order. Both magnus_transition and the interval build
    go through here, so an interval's transition equals the product of its
    segment transitions to rounding.
    """
    frac = np.arange(_MAGNUS_SUBSTEPS + 1) / _MAGNUS_SUBSTEPS
    edges = ta[:, None] + (tb - ta)[:, None] * frac
    args = _magnus_argument(b[:, None], c[:, None], edges[:, :-1], edges[:, 1:])
    order = np.searchsorted(_PADE_BOUNDS, np.max(np.sum(np.abs(args), axis=-2), axis=(1, 2)))
    steps = np.empty_like(args)
    for key in set(order.tolist()):
        steps[order == key] = expm_ss(args[order == key])
    phi = steps[:, 0]
    for j in range(1, _MAGNUS_SUBSTEPS):
        phi = steps[:, j] @ phi
    return phi


def _windowed_transition(b, c, t0, t1):
    """Transitions of rows b, c (m, n, n) over [t0, t1] (m,), in equal windows.

    A row takes ceil((t1 - t0) / _MAGNUS_WINDOW) windows; window k of every
    row that has one is one _transitions call.
    """
    span = t1 - t0
    n = np.maximum(1, np.ceil(span / _MAGNUS_WINDOW)).astype(int)
    x = _transitions(b, c, t0, np.where(n == 1, t1, t0 + span / n))
    for k in range(1, n.max()):
        at = np.flatnonzero(n > k)
        tb = np.where(n[at] == k + 1, t1[at], t0[at] + span[at] * (k + 1) / n[at])
        x[at] = _transitions(b[at], c[at], t0[at] + span[at] * k / n[at], tb) @ x[at]
    return x


def magnus_transition(coeffs: SegmentCoeffs, t0: float, t1: float):
    """Transition matrix over [t0, t1] within one segment (local times).

    Cut into ceil((t1 - t0) / 0.5 s) equal windows of three uniform
    sixth-order Blanes-Casas-Ros steps each, as the segment pieces are: the
    error grows as the window length to the seventh power and stays within
    1e-6 relative of a dense RK4 oracle on any span.
    """
    if not (-1e-12 <= t0 <= t1 <= coeffs.duration + 1e-12):
        raise DomainError("magnus_transition times must satisfy 0 <= t0 <= t1 <= duration")
    if t1 == t0:
        return np.eye(12)
    return _windowed_transition(coeffs.b[None], coeffs.c[None], np.array([t0], dtype=float),
                                np.array([t1], dtype=float))[0]


def _pow(dt, k):
    # a float's dt ** k is the C library's pow, which NumPy's vectorized
    # power and square do not always match to the last bit
    return np.array(np.asarray(dt, dtype=float).astype(object) ** k, dtype=float)


def _wnoa_blocks(c00, c01, c11, m):
    """[[c00 m, c01 m], [c01 m, c11 m]] for scalar or (n,) coefficients."""
    c = np.asarray([c00, c01, c11], dtype=float)[..., None, None] * m
    out = np.empty(c.shape[1:-2] + (12, 12))
    out[..., :6, :6], out[..., :6, 6:], out[..., 6:, :6], out[..., 6:, 6:] = c[0], c[1], c[1], c[2]
    return out


def wnoa_phi(dt):
    """Closed-form transition for identically zero inputs, over a scalar or (n,) dt."""
    dt = np.asarray(dt, dtype=float)[..., None, None]
    out = _EYE12 + np.zeros(dt.shape[:-2] + (12, 12))
    out[..., :6, 6:] = dt * _EYE12[:6, :6]
    return out


def wnoa_q(dt, qc):
    """Closed-form accumulated noise covariance for identically zero inputs, likewise."""
    dt = np.asarray(dt, dtype=float)
    return _wnoa_blocks(_pow(dt, 3) / 3.0, _pow(dt, 2) / 2.0, dt, np.asarray(qc, dtype=float))


def wnoa_q_inv(dt, qc_inv):
    dt = np.asarray(dt, dtype=float)
    return _wnoa_blocks(12.0 / _pow(dt, 3), -6.0 / _pow(dt, 2), 4.0 / dt,
                        np.asarray(qc_inv, dtype=float))


class QueryBlocks(NamedTuple):
    """Transition/integral pieces for query times, stacked (n, ...), or one time's from at.

    input_velocity is the input twist at the query time, right-continuous
    at knots like InputProfile.evaluate.
    """

    phi_from_start: np.ndarray
    phi_to_end: np.ndarray
    q_tau: np.ndarray
    input_tau: np.ndarray
    input_velocity: np.ndarray


def _compose(earlier, later):
    """(Phi, input integral, Q) over two consecutive windows, from each one's (stacked) triple."""
    phi_1, inp_1, q_1 = earlier
    phi_2, inp_2, q_2 = later
    return (phi_2 @ phi_1, (phi_2 @ inp_1[..., None])[..., 0] + inp_2,
            phi_2 @ q_1 @ np.swapaxes(phi_2, -1, -2) + q_2)


def _segment_pieces(profile: InputProfile, rows, upto, hyper: PriorHyper):
    """Transitions, input integrals and noise integrals over [0, upto] of rows of profile.

    All three are blocks of the transition X(upto, 0) of Van Loan's
    generator (_generator): Phi = X11, the input integral is X13 and
    Q = X12 X11^T. The generator is linear in s, so _windowed_transition
    integrates it in ceil(upto / _MAGNUS_WINDOW) equal windows. rows and
    upto (m,) give stacks of m.
    """
    x = _windowed_transition(*_generator(profile, rows, hyper.qc), np.zeros(len(upto)), upto)
    phi = x[:, :12, :12]
    return phi, x[:, :12, 24], x[:, :12, 12:24] @ np.swapaxes(phi, -1, -2)


def _pieces(profile: InputProfile, rows, upto, closed, hyper: PriorHyper):
    """(Phi, input integral, Q) over [0, upto] (m,) of rows of profile, stacked.

    Rows marked closed take the constant-velocity closed forms, the others
    _segment_pieces, CHUNK_SEGMENTS at a time.
    """
    phi, q = np.empty((2, len(rows), 12, 12))
    inp = np.zeros((len(rows), 12))
    if closed.any():
        dt = upto[closed]
        phi[closed], q[closed] = wnoa_phi(dt), wnoa_q(dt, hyper.qc)
    general = np.flatnonzero(~closed)
    for lo in range(0, len(general), CHUNK_SEGMENTS):
        at = general[lo:lo + CHUNK_SEGMENTS]
        phi[at], inp[at], q[at] = _segment_pieces(profile, rows[at], upto[at], hyper)
    return phi, inp, q


class IntervalBlocks:
    """Precomputed prior quantities for one node interval: row `row` of the IntervalArrays `arrays`.

    profile is the interval's InputProfile. The (transition, input
    integral, noise integral) triples from t0 to every later knot of it, t1
    included, are _phi, _input and _q (n, ...); phi, input_full and q_full
    are the last row, and the triple at t0 is the identity. Each field is a
    view into arrays, read when asked. IntervalBlocks(profile, hyper) is an
    IntervalArrays of one. Identically zero profiles are closed_form unless
    force_general is set (which exercises the general route, as the
    fallback-equivalence tests need): their segment pieces, the transition
    from a query time to t1 and Q^-1 are the closed forms of constant
    velocity. at and compose are the batches of one of IntervalArrays.query
    and IntervalArrays.coarsen.
    """

    __slots__ = ("arrays", "row")

    def __init__(self, profile: InputProfile, hyper: PriorHyper, *, force_general: bool = False):
        self.arrays, self.row = _build(profile, [len(profile)], hyper, force_general), 0

    hyper = property(lambda self: self.arrays.hyper)
    t0 = property(lambda self: float(self.arrays.t0[self.row]))
    t1 = property(lambda self: float(self.arrays.t1[self.row]))
    closed_form = property(lambda self: bool(self.arrays.closed_form[self.row]))
    phi = property(lambda self: self.arrays.phi[self.row])
    input_full = property(lambda self: self.arrays.input_full[self.row])
    q_full = property(lambda self: self.arrays.q_full[self.row])
    q_full_inv = property(lambda self: self.arrays.q_full_inv[self.row])
    _knots = property(lambda self: slice(*self.arrays.offsets[self.row:self.row + 2]))
    profile = property(lambda self: self.arrays.profile[self._knots])
    _phi = property(lambda self: self.arrays.knot_phi[self._knots])
    _input = property(lambda self: self.arrays.knot_input[self._knots])
    _q = property(lambda self: self.arrays.knot_q[self._knots])

    @staticmethod
    def compose(fine_blocks) -> "IntervalBlocks":
        """One interval over consecutive fine ones, IntervalBlocks or an IntervalArrays."""
        return IntervalArrays.stack(fine_blocks).coarsen(len(fine_blocks))[0]

    def at(self, tau: float) -> QueryBlocks:
        """Blocks for a query time in [t0, t1]."""
        return QueryBlocks(*(x[0] for x in self.arrays.query([self.row], [tau])))


def _inverse_or_nan(m):
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.full_like(m, np.nan)


@dataclass(frozen=True, eq=False)
class IntervalArrays:
    """Node intervals, stacked, as a sequence of IntervalBlocks: the one interval container.

    profile holds the intervals' input segments, interval i holding its rows
    offsets[i] to offsets[i + 1] - 1. On profile row r, knot_phi, knot_input
    and knot_q (S, ...) hold the triple from the start of r's interval to
    the end of r; closed_form (n,) marks the closed-form intervals. The
    ends t0, t1 (n,), the full triples phi, input_full and q_full and the
    weights q_full_inv (n, ...) follow, each full Q symmetrized in place.
    intervals[i] is row i, made as an IntervalBlocks on access, and a slice
    a tuple of rows.
    """

    profile: InputProfile
    hyper: PriorHyper
    offsets: np.ndarray
    closed_form: np.ndarray
    knot_phi: np.ndarray
    knot_input: np.ndarray
    knot_q: np.ndarray
    t0: np.ndarray = field(init=False)
    t1: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    input_full: np.ndarray = field(init=False)
    q_full: np.ndarray = field(init=False)
    q_full_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        last, q, closed = self.offsets[1:] - 1, self.knot_q, self.closed_form
        # one knot per interval: the full triples are the knot arrays, not copies
        last = slice(None) if len(last) == len(q) else last
        q[last] = 0.5 * (q[last] + np.swapaxes(q[last], -1, -2))
        t0, t1 = self.profile.t0[self.offsets[:-1]], self.profile.t1[last]
        q_inv = np.empty((len(t1), 12, 12))
        q_inv[closed] = wnoa_q_inv(t1[closed] - t0[closed], self.hyper.qc_inv)
        try:
            q_inv[~closed] = np.linalg.inv(q[last][~closed])
        except np.linalg.LinAlgError:
            q_inv[~closed] = [_inverse_or_nan(m) for m in q[last][~closed]]
        bad = np.flatnonzero(~np.isfinite(q_inv).all(axis=(1, 2)))
        if len(bad):
            k = bad[0]
            raise HyperparameterError(f"interval {k} (t = {t0[k]:.6g} to {t1[k]:.6g} s): its "
                                      "noise covariance Q is not finite or not invertible")
        for name, value in (("t0", t0), ("t1", t1), ("phi", self.knot_phi[last]),
                            ("input_full", self.knot_input[last]), ("q_full", q[last]),
                            ("q_full_inv", q_inv)):
            object.__setattr__(self, name, value)

    @classmethod
    def stack(cls, intervals) -> "IntervalArrays":
        """IntervalBlocks, copied in the given order, or an IntervalArrays as it is.

        The profiles are joined unchecked: a caller checks the ends it relies
        on, against the node times (check_interval_times) or each other
        (coarsen). Raises WiringError without rows or for one that is not an
        IntervalBlocks, HyperparameterError unless they share one Qc.
        """
        if isinstance(intervals, IntervalArrays):
            return intervals
        rows = list(intervals)
        if not rows:
            raise WiringError("need at least one interval")
        for k, b in enumerate(rows):
            if not isinstance(b, IntervalBlocks):
                raise WiringError(f"prior interval {k} is not an IntervalBlocks")
        if any(not np.array_equal(b.hyper.qc, rows[0].hyper.qc) for b in rows):
            raise HyperparameterError("stacked intervals must share one Qc")
        profile = InputProfile._stacked(*(np.concatenate([getattr(b.profile, name) for b in rows])
                                          for name in InputProfile.__slots__))
        return cls(profile, rows[0].hyper, np.cumsum([0] + [len(b.profile) for b in rows]),
                   np.array([b.closed_form for b in rows]),
                   *(np.concatenate(x) for x in zip(*((b._phi, b._input, b._q) for b in rows))))

    def coarsen(self, ratio: int) -> "IntervalArrays":
        """The intervals over ratio consecutive ones each, the last over those left.

        The fine triples are composed in time order without integrating, one
        stacked _compose per position p of a fine interval in a coarse one.
        Every fine knot stays a knot, so at() at any of them is a lookup. A
        coarse interval is closed_form when all its fine ones are. Raises
        DegenerateInputError unless the intervals are contiguous.
        """
        if np.any(np.abs(self.t0[1:] - self.t1[:-1]) > TIME_TOL):
            raise DegenerateInputError("composed intervals must be contiguous")
        phi, inp, q = self.knot_phi.copy(), self.knot_input.copy(), self.knot_q.copy()
        counts = np.diff(self.offsets)
        for p in range(1, ratio):
            fine = np.arange(p, len(self), ratio)
            at = _ranges(self.offsets[fine], counts[fine])
            before = np.repeat(self.offsets[fine] - 1, counts[fine])
            phi[at], inp[at], q[at] = _compose((phi[before], inp[before], q[before]),
                                               (phi[at], inp[at], q[at]))
        starts = np.arange(0, len(self), ratio)
        offsets = np.append(self.offsets[starts], self.offsets[-1])
        return IntervalArrays(self.profile, self.hyper, offsets,
                              np.logical_and.reduceat(self.closed_form, starts), phi, inp, q)

    @cached_property
    def _row_keys(self):
        """Each profile row's interval + 1j * its start, sorted: complex numbers
        order by real, then imaginary part, so one search finds a query's row."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets)) + 1j * self.profile.t0

    def query(self, k, taus) -> QueryBlocks:
        """Blocks for query times taus (n,), each in its interval k (n,), stacked.

        A time within 1e-12 s of its segment's end snaps to the next knot.
        Raises DomainError naming the first time outside its interval.
        """
        k, taus = np.asarray(k, dtype=int), np.asarray(taus, dtype=float)
        t0, t1, lo = self.t0[k], self.t1[k], self.offsets[k]
        valid = (t0 - TIME_TOL <= taus) & (taus <= t1 + TIME_TOL)
        if not valid.all():
            i = np.argmin(valid)
            raise DomainError(f"query time {taus[i]} outside interval [{t0[i]}, {t1[i]}]")
        p = self.profile
        m = np.maximum(np.searchsorted(self._row_keys, k + 1j * taus, side="right") - 1, lo)
        start, v0 = p.t0[m], p.v0[m]
        local, span = taus - start, p.t1[m] - start
        # the input twist as InputProfile.evaluate reads it: before the snap below
        velocity = v0 + (local / span)[:, None] * (p.v1[m] - v0)
        snap = (local > 1e-12) & (span - local <= 1e-12)
        m = m + snap
        # the triple from t0 to the start of row m, the identity on the first row
        phi, inp, q = self.knot_phi[m - 1], self.knot_input[m - 1], self.knot_q[m - 1]
        first = m == lo
        if first.any():
            phi[first], inp[first], q[first] = _EYE12, 0.0, 0.0
        # then the piece on to tau; on a knot, the closed form over no time
        inside = (local > 1e-12) & ~snap
        closed = self.closed_form[k]
        phi, inp, q = _compose((phi, inp, q), _pieces(p, m, np.where(inside, local, 0.0),
                                                      closed | ~inside, self.hyper))
        to_end, general = np.empty_like(phi), ~closed
        if closed.any():
            to_end[closed] = wnoa_phi(t1[closed] - taus[closed])
        if general.any():
            to_end[general] = self.phi[k[general]] @ np.linalg.inv(phi[general])
        return QueryBlocks(phi, to_end, 0.5 * (q + np.swapaxes(q, -1, -2)), inp, velocity)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, i):
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return tuple(self[r] for r in rows)
        blocks = IntervalBlocks.__new__(IntervalBlocks)
        blocks.arrays, blocks.row = self, rows
        return blocks


def _build(profile: InputProfile, counts, hyper: PriorHyper,
           force_general: bool = False) -> IntervalArrays:
    """The intervals over consecutive rows of profile, counts[i] of them for interval i.

    Zero-input intervals take the closed forms unless force_general is set,
    the other rows are integrated CHUNK_SEGMENTS at a time, and knot j of
    every interval is then composed after its knot j - 1, stacked.
    """
    counts = np.asarray(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    moving = (profile.v0.any(axis=1) | profile.v1.any(axis=1)
              | profile.a0.any(axis=1) | profile.a1.any(axis=1))
    closed_form = ~np.logical_or.reduceat(moving, offsets[:-1]) & (not force_general)
    phi, inp, q = _pieces(profile, np.arange(len(profile)), profile.t1 - profile.t0,
                          np.repeat(closed_form, counts), hyper)
    for j in range(1, counts.max()):
        at = offsets[:-1][counts > j] + j
        phi[at], inp[at], q[at] = _compose((phi[at - 1], inp[at - 1], q[at - 1]),
                                           (phi[at], inp[at], q[at]))
    return IntervalArrays(profile, hyper, offsets, closed_form, phi, inp, q)


def _ranges(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for every i, concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _split(profile: InputProfile, times):
    """profile cut at the node times, and the number of its rows in each interval.

    Each row is clipped to each node interval, its new ends read through
    values_at; pieces of at most TIME_TOL are dropped.
    """
    first = np.maximum(np.searchsorted(profile.t0, times[:-1], side="right") - 1, 0)
    count = np.clip(np.searchsorted(profile.t0, times[1:], side="left") + 1 - first,
                    0, len(profile) - first)
    rows, interval = _ranges(first, count), np.repeat(np.arange(len(count)), count)
    lo = np.maximum(profile.t0[rows], times[interval])
    hi = np.minimum(profile.t1[rows], times[interval + 1])
    keep = hi - lo > TIME_TOL
    rows, interval, lo, hi = rows[keep], interval[keep], lo[keep], hi[keep]
    (v_lo, a_lo), (v_hi, a_hi) = profile.values_at(lo, rows), profile.values_at(hi, rows)
    return (InputProfile._stacked(lo, hi, v_lo, v_hi, a_lo, a_hi),
            np.diff(np.searchsorted(interval, np.arange(len(times)))))


def precompute_intervals(profile: InputProfile, node_times, hyper: PriorHyper) -> IntervalArrays:
    """The IntervalArrays between consecutive node times, over one input profile, in one pass.

    Raises DegenerateInputError for a profile that is not an InputProfile,
    node times that are not numbers, fewer than two of them, a non-finite
    one, or one with no more than TIME_TOL of input after the one before it
    (so the times must increase), DomainError for one outside the profile,
    each naming the node and its time, and HyperparameterError for a hyper
    that is not a PriorHyper.
    """
    if not isinstance(profile, InputProfile):
        raise DegenerateInputError(f"need an InputProfile, got {profile!r}")
    if not isinstance(hyper, PriorHyper):
        raise HyperparameterError(f"need a PriorHyper, got {hyper!r}")
    times = _floats(node_times, "node times", DegenerateInputError)
    if times.ndim != 1 or len(times) < 2:
        raise DegenerateInputError(f"need at least two node times, got {times.size}")
    split, counts = _split(profile, times)
    empty = np.concatenate([[False], counts == 0])
    inside = (times >= profile.start - TIME_TOL) & (times <= profile.end + TIME_TOL)
    bad = np.flatnonzero(~np.isfinite(times) | empty | ~inside)
    if len(bad):
        k, t = int(bad[0]), times[bad[0]]
        if not np.isfinite(t):
            raise DegenerateInputError(f"node {k} time {t} is not finite")
        if empty[k]:
            raise DegenerateInputError(f"node {k} time {t:.9g} s is not more than {TIME_TOL} s "
                                       f"of input after node {k - 1} at {times[k - 1]:.9g} s")
        raise DomainError(f"node {k} time {t:.9g} s lies outside the input profile "
                          f"[{profile.start:.9g}, {profile.end:.9g}] s")
    return _build(split, counts, hyper)


def check_interval_times(times, t0, t1):
    """Raise WiringError unless each interval's nodes sit at its ends.

    times holds the K node times and (t0, t1) the ends of the K-1
    intervals; interval k spans nodes k and k+1.
    """
    times = np.asarray(times, dtype=float)
    if (np.any(np.abs(times[:-1] - t0) > TIME_TOL)
            or np.any(np.abs(times[1:] - t1) > TIME_TOL)):
        raise WiringError("node times do not match the interval the blocks were built for")


class IntervalChart(NamedTuple):
    """Each node interval's far node in the local chart of its near node.

    gamma (n, 12) is [xi, psi] of node k+1 in node k's chart. jac_k
    (n, 12, 6) is d gamma / d pose_k and jac_k1 (n, 12, 12) is
    d gamma / d node_k+1. The prior factor and every interpolated query in
    the interval read these.
    """

    gamma: np.ndarray
    jac_k: np.ndarray
    jac_k1: np.ndarray


def interval_chart(nodes: NodeArrays) -> IntervalChart:
    """Charts of the K-1 intervals between consecutive stacked nodes.

    xi = ln(T_k1 T_k^-1)^v and psi = Jinv(xi) b_k1, with xi and Jinv(xi)
    from one se3_log_jacobian_inv pass. The bias term's Jacobian follows
    from J(xi) psi = b_k1: d psi/dxi = -Jinv(xi) d(J(xi) w)/dxi at w = psi,
    one j_vec_dx call. A relative rotation too near pi for the logarithm
    raises IllConditionedRotationError naming the interval, its nodes and
    their times.
    """
    rot, trans, bias = nodes.rot, nodes.trans, nodes.bias
    rel_rot = rot[1:] @ np.swapaxes(rot[:-1], -1, -2)
    rel_trans = trans[1:] - np.einsum("nij,nj->ni", rel_rot, trans[:-1])
    try:
        xi, jinv = se3_log_jacobian_inv(rel_rot, rel_trans)
    except IllConditionedRotationError as err:
        k = err.entry
        first, last = nodes.index[k], nodes.index[k + 1]
        raise IllConditionedRotationError(
            f"interval {first} (nodes {first} and {last}, t = {nodes.time[k]:.6g} to "
            f"{nodes.time[k + 1]:.6g} s): {err}", k) from err
    psi = np.einsum("nij,nj->ni", jinv, bias[1:])
    gamma = np.concatenate([xi, psi], axis=-1)
    # d gamma / d xi, chained to the left perturbation of node k+1's pose
    chart = np.concatenate([jinv, -jinv @ j_vec_dx(xi, psi) @ jinv], axis=-2)
    jac_k1 = np.zeros((len(xi), 12, 12))
    jac_k1[:, :, :6] = chart
    jac_k1[:, 6:, 6:] = jinv
    return IntervalChart(gamma, -chart @ se3_adjoint(rel_rot, rel_trans), jac_k1)


def prior_mean_propagate(node: StateNode, blocks: IntervalBlocks, tau: float) -> StateNode:
    """Prior mean state at tau, propagated from the node at the interval start.

    Raises IntervalTooLongError when the local chart leaves its valid range
    (angular norm of xi reaching pi).
    """
    if abs(node.time - blocks.t0) > TIME_TOL:
        raise WiringError("node time does not match the interval start")
    qb = blocks.at(tau)
    gamma0 = np.concatenate([np.zeros(6), node.bias])
    gamma = qb.phi_from_start @ gamma0 + qb.input_tau
    xi, psi = gamma[:6], gamma[6:]
    ang = float(np.linalg.norm(xi[3:]))
    if ang >= np.pi:
        raise IntervalTooLongError(
            f"local chart left its valid range on the interval [{blocks.t0:.6g}, "
            f"{blocks.t1:.6g}] s at t = {tau:.6g} s (|xi_ang| = {ang:.3f} >= pi); "
            "shorten the interval")
    rot, trans, jac = se3_exp_jacobian(xi)
    return StateNode(tau, Pose(rot, trans) @ node.pose, jac @ psi)
