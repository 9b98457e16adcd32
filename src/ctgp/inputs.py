"""Piecewise-linear exogenous input profiles.

A profile stacks contiguous segments of any length as rows of arrays, each
linear in time in both the velocity and acceleration channels. Values may
jump at segment knots; evaluation is right-continuous there. A profile is
validated, contiguity included, where its data enters: InputProfile,
from_samples and read_input_log. One profile drives a whole problem; the
motion prior cuts it at the node times (prior.precompute_intervals), and how
finely a segment is integrated is its concern too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, as_floats

_KNOT_TOL = 1e-9


def _lerp(t, t0, t1, v0, v1, a0, a1):
    """Velocity and acceleration at time(s) t between the end values on [t0, t1]."""
    s = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
    s = s[..., None] if np.ndim(s) else s
    return v0 + s * (v1 - v0), a0 + s * (a1 - a0)


@dataclass(frozen=True)
class InputSegment:
    """Inputs on [t0, t1], linear between the stored endpoint values."""

    t0: float
    t1: float
    v0: np.ndarray
    v1: np.ndarray
    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        for name in ("v0", "v1", "a0", "a1"):
            # a copy: the segment must not change with the caller's array
            arr = as_floats(getattr(self, name), f"segment field {name}", DegenerateInputError)
            if arr.shape != (6,) or not np.all(np.isfinite(arr)):
                raise DegenerateInputError(f"segment field {name} must be a finite 6-vector")
            object.__setattr__(self, name, arr)
        t0 = as_floats(self.t0, "segment field t0", DegenerateInputError)
        t1 = as_floats(self.t1, "segment field t1", DegenerateInputError)
        if t0.shape != () or t1.shape != () or not np.isfinite([t0, t1]).all() or t1 <= t0:
            raise DegenerateInputError(f"segment requires finite t1 > t0, got {self.t0!r} and "
                                       f"{self.t1!r}")
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "t1", float(t1))

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def values_at(self, t):
        """Velocity and acceleration at absolute time(s) t, no domain check."""
        return _lerp(t, self.t0, self.t1, self.v0, self.v1, self.a0, self.a1)


class InputProfile:
    """Contiguous, ordered input segments covering [start, end]: the one input container.

    Row i is segment i: t0 and t1 (n,) hold its own ends, exactly as given,
    and v0, v1, a0 and a1 (n, 6) its endpoint velocities and accelerations.
    InputProfile(segments) stacks InputSegments and checks that they are
    contiguous; segments gives the rows back as InputSegments. len(profile)
    counts the rows, and profile[lo:hi] is a profile of views into them.
    """

    __slots__ = ("t0", "t1", "v0", "v1", "a0", "a1")

    def __init__(self, segments):
        segs = tuple(segments)
        if not segs:
            raise DegenerateInputError("profile requires at least one segment")
        for name in self.__slots__:
            setattr(self, name, np.array([getattr(s, name) for s in segs], dtype=float))
        if np.any(np.abs(self.t0[1:] - self.t1[:-1]) > _KNOT_TOL):
            raise DegenerateInputError("profile segments must be contiguous")

    @classmethod
    def _stacked(cls, *rows) -> "InputProfile":
        """A profile of the given (t0, t1, v0, v1, a0, a1) rows, unchecked."""
        out = cls.__new__(cls)
        out.t0, out.t1, out.v0, out.v1, out.a0, out.a1 = rows
        return out

    def __len__(self):
        return len(self.t0)

    def __getitem__(self, rows: slice) -> "InputProfile":
        return self._stacked(*(getattr(self, name)[rows] for name in self.__slots__))

    @classmethod
    def zero(cls, t0: float, t1: float) -> "InputProfile":
        """Identically zero profile of one segment; the prior integrates it in closed form."""
        return from_samples([t0, t1], np.zeros((2, 6)))

    @property
    def segments(self) -> tuple:
        """The rows as InputSegments, in time order."""
        return tuple(map(InputSegment, self.t0.tolist(), self.t1.tolist(),
                         self.v0, self.v1, self.a0, self.a1))

    @property
    def start(self) -> float:
        return float(self.t0[0])

    @property
    def end(self) -> float:
        return float(self.t1[-1])

    def is_zero(self) -> bool:
        return not (self.v0.any() or self.v1.any() or self.a0.any() or self.a1.any())

    def values_at(self, t, rows):
        """Velocity and acceleration at time(s) t on the given rows, no domain check."""
        return _lerp(t, *(getattr(self, name)[rows] for name in self.__slots__))

    def evaluate(self, t):
        """Right-continuous (velocity, acceleration) at time(s) t.

        The final knot returns the last segment's end values. Raises DomainError
        outside [start, end].
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.start - _KNOT_TOL) or np.any(t > self.end + _KNOT_TOL):
            raise DomainError(f"time outside profile domain [{self.start}, {self.end}]")
        return self.values_at(t, np.clip(np.searchsorted(self.t0, t, side="right") - 1,
                                         0, len(self.t0) - 1))


def from_samples(times, velocities, accelerations=None) -> InputProfile:
    """Profile through sampled inputs, one linear segment per sample gap.

    The segment endpoints are the samples themselves. Missing accelerations
    are zero.
    """
    # copies: the profile must not change with the caller's arrays
    times = as_floats(times, "sample times", DegenerateInputError)
    velocities = as_floats(velocities, "sample velocities", DegenerateInputError)
    accelerations = (np.zeros_like(velocities) if accelerations is None
                     else as_floats(accelerations, "sample accelerations",
                                     DegenerateInputError))
    if times.ndim != 1 or len(times) < 2:
        raise DegenerateInputError("need at least two samples")
    if velocities.shape != (len(times), 6) or accelerations.shape != (len(times), 6):
        raise DegenerateInputError("sample arrays must be (n, 6)")
    if np.any(np.diff(times) <= 0):
        raise DegenerateInputError("sample times must be strictly increasing")
    if not all(np.all(np.isfinite(x)) for x in (times, velocities, accelerations)):
        raise DegenerateInputError("samples must be finite")
    return InputProfile._stacked(times[:-1], times[1:], velocities[:-1], velocities[1:],
                                 accelerations[:-1], accelerations[1:])


def read_input_log(path) -> InputProfile:
    """Profile from delimited text: time, 6 velocity columns, optionally 6 acceleration columns."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] not in (7, 13):
        raise DegenerateInputError(
            f"input log must have 7 or 13 columns, found {data.shape[1]}"
        )
    acc = data[:, 7:13] if data.shape[1] == 13 else None
    return from_samples(data[:, 0], data[:, 1:7], acc)
