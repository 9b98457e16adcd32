"""Scenario files: schema, validation, and scripted ground-truth inputs.

A scenario is a YAML mapping with a ``schema_version`` key and a ``domain``
of either ``mobile`` or ``continuum``. Mobile scenarios script the robot's
true body velocity as a sequence of segments (hold, ramp, or sinusoid per
channel), place landmarks, and fix the measurement schedule and estimator
hyperparameters. Continuum scenarios describe the rod, the candidate tendon
tension sets, and the disturbance loads used by the benchmark.

All schema violations raise ScenarioError with the offending key path.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np
import yaml

from .continuum import RodModel, TendonRoute
from .errors import ScenarioError
from .liegroup import Pose

SCHEMA_VERSION = 1
_TIME_TOL = 1e-9


def _mapping(value, where):
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _require(mapping, key, where):
    _mapping(mapping, where)
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _number(value, where, *, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ScenarioError(f"{where}: must be finite, got an integer too large for a float"
                            ) from None
    if not np.isfinite(v):
        raise ScenarioError(f"{where}: must be finite, got {v}")
    if positive and v <= 0.0:
        raise ScenarioError(f"{where}: must be positive, got {v}")
    if nonnegative and v < 0.0:
        raise ScenarioError(f"{where}: must be non-negative, got {v}")
    return v


def _integer(value, where, *, minimum=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{where}: must be at least {minimum}, got {value}")
    return value


def _array(value, where, what, fits):
    """value as a float array of finite numbers that fits accepts, else ScenarioError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)) or not fits(arr):
        raise ScenarioError(f"{where}: expected {what}")
    return arr


def _vector(value, n, where, *, positive=False, nonnegative=False):
    what = "positive" if positive else "non-negative" if nonnegative else "finite"
    return _array(value, where, f"{n} {what} numbers",
                  lambda a: a.shape == (n,) and not (positive and np.any(a <= 0))
                  and not (nonnegative and np.any(a < 0)))


def _flag(value, where):
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _choice(value, options, where):
    if not isinstance(value, str) or value not in options:
        raise ScenarioError(f"{where}: expected one of {sorted(options)}, got {value!r}")
    return value


def _per_axis(value, where):
    """Expand a (linear, angular) pair to the 6 twist dimensions."""
    arr = _array(value, where, "2 or 6 positive numbers",
                 lambda a: a.size in (2, 6) and np.all(a > 0)).ravel()
    return np.repeat(arr, 3) if arr.shape == (2,) else arr


@dataclass(frozen=True)
class Channel:
    """One scripted input channel, evaluated over a segment's local time."""

    kind: str
    params: tuple

    def sample(self, u, duration):
        u = np.asarray(u, dtype=float)
        if self.kind == "hold":
            return np.full_like(u, self.params[0])
        if self.kind == "ramp":
            a, b = self.params
            return a + (b - a) * u / duration
        amplitude, period, phase, offset = self.params
        return offset + amplitude * np.sin(2.0 * np.pi * u / period + phase)


def _channel(value, where) -> Channel:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Channel("hold", (_number(value, where),))
    if isinstance(value, dict) and set(value) == {"ramp"}:
        pair = _vector(value["ramp"], 2, f"{where}.ramp")
        return Channel("ramp", (float(pair[0]), float(pair[1])))
    if isinstance(value, dict) and set(value) == {"sinusoid"}:
        spec = _mapping(value["sinusoid"], f"{where}.sinusoid")
        return Channel("sinusoid", (
            _number(_require(spec, "amplitude", f"{where}.sinusoid"),
                    f"{where}.sinusoid.amplitude"),
            _number(_require(spec, "period", f"{where}.sinusoid"),
                    f"{where}.sinusoid.period", positive=True),
            _number(spec.get("phase", 0.0), f"{where}.sinusoid.phase"),
            _number(spec.get("offset", 0.0), f"{where}.sinusoid.offset"),
        ))
    raise ScenarioError(
        f"{where}: expected a number, {{ramp: [a, b]}}, or {{sinusoid: {{...}}}}")


@dataclass(frozen=True)
class ScriptSegment:
    """Scripted true body velocity over one stretch of the trajectory."""

    duration: float
    forward: Channel
    lateral: Channel
    yaw_rate: Channel


@dataclass(frozen=True)
class RangeSchedule:
    """Range measurement timing and noise.

    scale is a multiplicative calibration error applied by the simulator
    only; the estimator always treats ranges as unbiased.
    """

    interval: float
    variance: float
    max_range: float | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class Disturbance:
    """Load withheld from the estimator: a total moment spread over a span."""

    moment: np.ndarray
    span: tuple[float, float]


@dataclass(frozen=True)
class MobileScenario:
    name: str
    duration: float
    input_rate: float
    sim_step: float
    seed: int
    planar: bool
    start: Pose
    script: tuple[ScriptSegment, ...]
    landmarks: np.ndarray
    range_schedule: RangeSchedule
    odometry_variance: np.ndarray
    qc_inputs: np.ndarray
    qc_baseline: np.ndarray
    node_policy: str
    process_noise: bool
    anchor_pose_sigma: np.ndarray
    anchor_bias_sigma: np.ndarray
    planar_lock_mode: str
    planar_lock_information: float

    @property
    def tick(self) -> float:
        return 1.0 / self.input_rate

    def tick_times(self) -> np.ndarray:
        n = int(round(self.duration * self.input_rate))
        return np.arange(n + 1) / self.input_rate

    def sample_script(self, times) -> np.ndarray:
        """Commanded twist (K, 6) at the given times."""
        times = np.asarray(times, dtype=float)
        starts = np.concatenate([[0.0], np.cumsum([s.duration for s in self.script])])
        out = np.zeros((len(times), 6))
        # boundary samples belong to the later segment
        idx = np.clip(np.searchsorted(starts, times + _TIME_TOL, side="right") - 1,
                      0, len(self.script) - 1)
        for k, seg in enumerate(self.script):
            m = idx == k
            if not np.any(m):
                continue
            u = times[m] - starts[k]
            out[m, 0] = seg.forward.sample(u, seg.duration)
            out[m, 1] = seg.lateral.sample(u, seg.duration)
            out[m, 5] = seg.yaw_rate.sample(u, seg.duration)
        return out


@dataclass(frozen=True)
class ContinuumScenario:
    name: str
    seed: int
    rod: RodModel
    node_count: int
    qc: np.ndarray
    tip_variance: float
    sim_step: float
    tension_sets: tuple[tuple[TendonRoute, ...], ...]
    disturbances: tuple[Disturbance, ...]

    def configs(self):
        """All (tension set, disturbance) pairs of the benchmark."""
        out = []
        for i, tendons in enumerate(self.tension_sets):
            for j, dist in enumerate(self.disturbances):
                out.append((i, j, tendons, dist))
        return out


def _yaw_pose(position, yaw) -> Pose:
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, np.asarray(position, dtype=float))


def _parse_mobile(doc) -> MobileScenario:
    duration = _number(_require(doc, "duration", "scenario"), "duration", positive=True)
    input_rate = _number(_require(doc, "input_rate", "scenario"), "input_rate",
                         positive=True)
    tick = 1.0 / input_rate
    ticks = duration / tick
    if not np.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6:
        raise ScenarioError("duration: must be a whole number of input ticks")

    segments = []
    script = _require(doc, "script", "scenario")
    if not isinstance(script, list) or not script:
        raise ScenarioError("script: expected a non-empty list of segments")
    for i, seg in enumerate(script):
        where = f"script[{i}]"
        segments.append(ScriptSegment(
            duration=_number(_require(seg, "duration", where), f"{where}.duration",
                             positive=True),
            forward=_channel(seg.get("forward", 0.0), f"{where}.forward"),
            lateral=_channel(seg.get("lateral", 0.0), f"{where}.lateral"),
            yaw_rate=_channel(seg.get("yaw_rate", 0.0), f"{where}.yaw_rate"),
        ))
    if sum(s.duration for s in segments) < duration - _TIME_TOL:
        raise ScenarioError("script: segments cover less than the scenario duration")

    landmarks = np.atleast_2d(_array(
        _require(doc, "landmarks", "scenario"), "landmarks", "a list of [x, y, z] positions",
        lambda a: a.size > 0 and np.atleast_2d(a).shape[1:] == (3,)))

    meas = _mapping(_require(doc, "measurements", "scenario"), "measurements")
    rng_spec = _mapping(_require(meas, "range", "measurements"), "measurements.range")
    interval = _number(_require(rng_spec, "interval", "measurements.range"),
                       "measurements.range.interval", positive=True)
    ticks = interval / tick
    if not np.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6:
        raise ScenarioError(
            "measurements.range.interval: must be a whole number of input ticks")
    max_range = rng_spec.get("max_range")
    scale = _number(rng_spec.get("scale", 1.0), "measurements.range.scale",
                    positive=True)
    if not 0.5 <= scale <= 1.5:
        raise ScenarioError("measurements.range.scale: implausible calibration error")
    schedule = RangeSchedule(
        interval=interval,
        variance=_number(_require(rng_spec, "variance", "measurements.range"),
                         "measurements.range.variance", positive=True),
        max_range=None if max_range is None
        else _number(max_range, "measurements.range.max_range", positive=True),
        scale=scale,
    )

    odo = _mapping(_require(doc, "odometry", "scenario"), "odometry")
    odo_var = _vector(_require(odo, "variance", "odometry"), 2, "odometry.variance",
                      positive=True)

    hyper = _mapping(_require(doc, "hyper", "scenario"), "hyper")
    start = _mapping(doc.get("start", {}), "start")
    anchor = _mapping(doc.get("anchor", {}), "anchor")
    lock = _mapping(doc.get("planar_lock", {}), "planar_lock")

    pose_sigma = _vector(anchor.get("pose_sigma", [0.0] * 6), 6, "anchor.pose_sigma",
                         nonnegative=True)
    bias_sigma = _vector(anchor.get("bias_sigma", [0.0] * 6), 6, "anchor.bias_sigma",
                         nonnegative=True)

    return MobileScenario(
        name=str(doc.get("name", "mobile")),
        duration=duration,
        input_rate=input_rate,
        sim_step=_number(doc.get("sim_step", 1e-4), "sim_step", positive=True),
        seed=_integer(doc.get("seed", 0), "seed"),
        planar=_flag(doc.get("planar", True), "planar"),
        start=_yaw_pose(_vector(start.get("position", [0.0, 0.0, 0.0]), 3,
                                "start.position"),
                        _number(start.get("yaw", 0.0), "start.yaw")),
        script=tuple(segments),
        landmarks=landmarks,
        range_schedule=schedule,
        odometry_variance=odo_var,
        qc_inputs=_per_axis(_require(hyper, "qc_inputs", "hyper"), "hyper.qc_inputs"),
        qc_baseline=_per_axis(_require(hyper, "qc_baseline", "hyper"),
                              "hyper.qc_baseline"),
        node_policy=_choice(doc.get("node_policy", "all"), {"all", "meas-only"},
                            "node_policy"),
        process_noise=_flag(doc.get("process_noise", False), "process_noise"),
        anchor_pose_sigma=pose_sigma,
        anchor_bias_sigma=bias_sigma,
        planar_lock_mode=_choice(lock.get("mode", "full"), {"full", "bias", "none"},
                                 "planar_lock.mode"),
        planar_lock_information=_number(lock.get("information", 1e8),
                                        "planar_lock.information", positive=True),
    )


def _parse_continuum(doc) -> ContinuumScenario:
    rod_spec = _mapping(_require(doc, "rod", "scenario"), "rod")
    length = _number(_require(rod_spec, "length", "rod"), "rod.length", positive=True)
    stiffness = _vector(_require(rod_spec, "stiffness", "rod"), 6, "rod.stiffness",
                        positive=True)
    disks = rod_spec.get("disks", 10)
    if isinstance(disks, int) and not isinstance(disks, bool):
        if _number(disks, "rod.disks") < 1:
            raise ScenarioError("rod.disks: need at least one disk")
        disk_arclengths = np.linspace(length / disks, length, disks)
    else:
        disk_arclengths = _array(disks, "rod.disks",
                                 f"a disk count or a list of arclengths in [0, {length:g}]",
                                 lambda a: a.size > 0 and np.all((a >= 0) & (a <= length))).ravel()
    rod = RodModel(length, stiffness, tuple(disk_arclengths))

    hyper = _mapping(_require(doc, "hyper", "scenario"), "hyper")
    tip = _mapping(_require(doc, "tip", "scenario"), "tip")

    sets = _require(doc, "tension_sets", "scenario")
    if not isinstance(sets, list) or not sets:
        raise ScenarioError("tension_sets: expected a non-empty list")
    tension_sets = []
    for i, tendons in enumerate(sets):
        where = f"tension_sets[{i}]"
        if not isinstance(tendons, list) or not tendons:
            raise ScenarioError(f"{where}: expected a non-empty list of tendons")
        routes = []
        for j, t in enumerate(tendons):
            tw = f"{where}[{j}]"
            routes.append(TendonRoute(
                offset_radius=_number(_require(t, "radius", tw), f"{tw}.radius",
                                      positive=True),
                azimuth=_number(t.get("azimuth", 0.0), f"{tw}.azimuth"),
                termination_arclength=_number(
                    _require(t, "termination", tw), f"{tw}.termination",
                    nonnegative=True),
                tension=_number(_require(t, "tension", tw), f"{tw}.tension",
                                nonnegative=True),
            ))
        tension_sets.append(tuple(routes))

    dists = _require(doc, "disturbances", "scenario")
    if not isinstance(dists, list) or not dists:
        raise ScenarioError("disturbances: expected a non-empty list")
    disturbances = []
    for i, d in enumerate(dists):
        where = f"disturbances[{i}]"
        span = _vector(_require(d, "span", where), 2, f"{where}.span")
        if not (0.0 <= span[0] < span[1] <= 1.0):
            raise ScenarioError(f"{where}.span: expected fractions 0 <= a < b <= 1")
        disturbances.append(Disturbance(
            moment=_vector(_require(d, "moment", where), 3, f"{where}.moment"),
            span=(float(span[0]), float(span[1])),
        ))

    return ContinuumScenario(
        name=str(doc.get("name", "continuum")),
        seed=_integer(doc.get("seed", 0), "seed"),
        rod=rod,
        node_count=_integer(_require(doc, "node_count", "scenario"), "node_count",
                            minimum=2),
        qc=_per_axis(_require(hyper, "qc", "hyper"), "hyper.qc"),
        tip_variance=_number(_require(tip, "variance", "tip"), "tip.variance",
                             positive=True),
        sim_step=_number(doc.get("sim_step", 1e-4), "sim_step", positive=True),
        tension_sets=tuple(tension_sets),
        disturbances=tuple(disturbances),
    )


def parse_scenario(doc: dict):
    """Validate a parsed YAML document and build the scenario object."""
    _mapping(doc, "scenario")
    version = _require(doc, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: this build reads version {SCHEMA_VERSION}, got {version!r}")
    domain = _choice(_require(doc, "domain", "scenario"), {"mobile", "continuum"},
                     "domain")
    if domain == "mobile":
        return _parse_mobile(doc)
    return _parse_continuum(doc)


def load_scenario(path):
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ScenarioError(f"{path}: not valid YAML ({err})") from err
    return parse_scenario(doc)


def bundled_scenario(name):
    """Load one of the scenarios shipped with the package."""
    root = importlib.resources.files("ctgp.scenarios")
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        available = ", ".join(sorted(p.stem for p in root.iterdir()
                                     if p.name.endswith(".yaml")))
        raise ScenarioError(f"no bundled scenario '{name}' (available: {available})")
    return parse_scenario(yaml.safe_load(candidate.read_text(encoding="utf-8")))
