"""Piecewise-linear exogenous input profiles.

A profile stores contiguous segments of any length, each linear in time in
both the velocity and acceleration channels. Values may jump at segment
knots; evaluation is right-continuous there. How finely a segment is
integrated is the motion prior's concern (prior.py), not the profile's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError

_KNOT_TOL = 1e-9


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
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (6,) or not np.all(np.isfinite(arr)):
                raise DegenerateInputError(f"segment field {name} must be a finite 6-vector")
            object.__setattr__(self, name, arr)
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)) or self.t1 <= self.t0:
            raise DegenerateInputError("segment requires t1 > t0")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def values_at(self, t):
        """Velocity and acceleration at absolute time(s) t, no domain check."""
        s = (np.asarray(t, dtype=float) - self.t0) / self.duration
        s = s[..., None] if np.ndim(s) else s
        v = self.v0 + s * (self.v1 - self.v0)
        a = self.a0 + s * (self.a1 - self.a0)
        return v, a


@dataclass(frozen=True)
class InputProfile:
    """Contiguous, ordered input segments covering [start, end]."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise DegenerateInputError("profile requires at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if abs(nxt.t0 - prev.t1) > _KNOT_TOL:
                raise DegenerateInputError("profile segments must be contiguous")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", np.array([s.t0 for s in segs]))

    @property
    def start(self) -> float:
        return self.segments[0].t0

    @property
    def end(self) -> float:
        return self.segments[-1].t1

    @classmethod
    def zero(cls, t0: float, t1: float) -> "InputProfile":
        """Identically zero profile of one segment; the prior integrates it in closed form."""
        z = np.zeros(6)
        return cls((InputSegment(t0, t1, z, z, z, z),))

    def is_zero(self) -> bool:
        return all(
            not (np.any(s.v0) or np.any(s.v1) or np.any(s.a0) or np.any(s.a1))
            for s in self.segments
        )

    def evaluate(self, t):
        """Right-continuous (velocity, acceleration) at time(s) t.

        The final knot returns the last segment's end values. Raises DomainError
        outside [start, end].
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.start - _KNOT_TOL) or np.any(t > self.end + _KNOT_TOL):
            raise DomainError(f"time outside profile domain [{self.start}, {self.end}]")
        idx = np.clip(np.searchsorted(self._starts, t, side="right") - 1,
                      0, len(self.segments) - 1)
        if t.ndim == 0:
            return self.segments[int(idx)].values_at(float(t))
        v = np.empty(t.shape + (6,))
        a = np.empty(t.shape + (6,))
        for i in np.unique(idx):
            m = idx == i
            v[m], a[m] = self.segments[i].values_at(t[m])
        return v, a

    def slice(self, t0: float, t1: float) -> "InputProfile":
        """Restriction to [t0, t1], splitting straddling segments with interpolated endpoints."""
        if t0 < self.start - _KNOT_TOL or t1 > self.end + _KNOT_TOL or t1 <= t0:
            raise DomainError("slice window must lie inside the profile and have positive length")
        # binary-search the overlapping range; the guards below keep edge exactness
        lo_idx = max(0, int(np.searchsorted(self._starts, t0, side="right")) - 1)
        hi_idx = min(len(self.segments),
                     int(np.searchsorted(self._starts, t1, side="left")) + 1)
        out = []
        for seg in self.segments[lo_idx:hi_idx]:
            lo, hi = max(seg.t0, t0), min(seg.t1, t1)
            if hi - lo <= _KNOT_TOL:
                continue
            v_lo, a_lo = seg.values_at(lo)
            v_hi, a_hi = seg.values_at(hi)
            out.append(InputSegment(lo, hi, v_lo, v_hi, a_lo, a_hi))
        if not out:
            raise DomainError("slice window contains no segment content")
        return InputProfile(tuple(out))


def from_samples(times, velocities, accelerations=None) -> InputProfile:
    """Profile through sampled inputs, one linear segment per sample gap.

    The segment endpoints are the samples themselves. Missing accelerations
    are zero.
    """
    times = np.asarray(times, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    if accelerations is None:
        accelerations = np.zeros_like(velocities)
    accelerations = np.asarray(accelerations, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise DegenerateInputError("need at least two samples")
    if velocities.shape != (len(times), 6) or accelerations.shape != (len(times), 6):
        raise DegenerateInputError("sample arrays must be (n, 6)")
    if np.any(np.diff(times) <= 0):
        raise DegenerateInputError("sample times must be strictly increasing")
    if not (np.all(np.isfinite(velocities)) and np.all(np.isfinite(accelerations))):
        raise DegenerateInputError("samples must be finite")

    return InputProfile(tuple(
        InputSegment(times[i], times[i + 1], velocities[i], velocities[i + 1],
                     accelerations[i], accelerations[i + 1])
        for i in range(len(times) - 1)))


def read_input_log(path) -> InputProfile:
    """Profile from delimited text: time, 6 velocity columns, optionally 6 acceleration columns."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] not in (7, 13):
        raise DegenerateInputError(
            f"input log must have 7 or 13 columns, found {data.shape[1]}"
        )
    acc = data[:, 7:13] if data.shape[1] == 13 else None
    return from_samples(data[:, 0], data[:, 1:7], acc)
