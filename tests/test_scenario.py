import copy
import dataclasses
import importlib.resources
import re

import numpy as np
import pytest
import yaml

from ctgp.errors import ScenarioError
from ctgp.scenario import (ContinuumScenario, MobileScenario, bundled_scenario, load_scenario,
                           parse_scenario)

MINIMAL_MOBILE = """
schema_version: 1
domain: mobile
name: tiny
duration: 4.0
input_rate: 10.0
script:
  - {duration: 2.0, forward: 1.0, yaw_rate: 0.5}
  - {duration: 2.0, forward: {ramp: [1.0, 0.0]}, yaw_rate: {sinusoid: {amplitude: 0.3, period: 2.0}}}
landmarks:
  - [1.0, 2.0, 0.0]
measurements:
  range: {interval: 0.5, variance: 1.0e-4}
odometry:
  variance: [1.0e-4, 2.0e-4]
hyper:
  qc_inputs: [1.0e-5, 2.0e-5]
  qc_baseline: [1.0e-3, 2.0e-3]
"""

MINIMAL_CONTINUUM = """
schema_version: 1
domain: continuum
name: rodtest
node_count: 5
rod:
  length: 0.2
  stiffness: [1.8e+4, 1.8e+4, 4.7e+4, 2.9e-3, 2.9e-3, 2.2e-3]
  disks: 4
hyper:
  qc: [1.0e-2, 1.0e+3]
tip:
  variance: 4.0e-7
tension_sets:
  - - {radius: 5.0e-3, azimuth: 0.0, termination: 0.2, tension: 1.0}
disturbances:
  - {moment: [0.0, 1.0e-3, 0.0], span: [0.5, 1.0]}
"""


def doc(text, **overrides):
    d = yaml.safe_load(text)
    d.update(overrides)
    return d


class TestMobileParsing:
    def test_minimal_document_round_trips(self):
        s = parse_scenario(doc(MINIMAL_MOBILE))
        assert s.name == "tiny"
        assert s.tick == pytest.approx(0.1)
        assert s.landmarks.shape == (1, 3)
        assert s.range_schedule.interval == 0.5
        assert s.range_schedule.scale == 1.0
        assert s.node_policy == "all"
        assert not s.process_noise
        # 2-value hyper expands per axis
        assert np.allclose(s.qc_inputs, [1e-5] * 3 + [2e-5] * 3)

    def test_range_scale_parses(self):
        d = doc(MINIMAL_MOBILE)
        d["measurements"]["range"]["scale"] = 1.01
        assert parse_scenario(d).range_schedule.scale == pytest.approx(1.01)

    def test_script_sampling_fills_planar_channels(self):
        s = parse_scenario(doc(MINIMAL_MOBILE))
        v = s.sample_script([0.0, 1.0, 2.0, 2.5, 3.9999])
        assert v.shape == (5, 6)
        assert np.allclose(v[0], [1.0, 0, 0, 0, 0, 0.5])
        # boundary sample belongs to the later segment
        assert v[2, 0] == pytest.approx(1.0)
        assert v[2, 5] == pytest.approx(0.3 * np.sin(0.0))
        assert v[3, 0] == pytest.approx(0.75)
        assert v[3, 5] == pytest.approx(0.3 * np.sin(2 * np.pi * 0.5 / 2.0))
        assert np.all(v[:, [1, 2, 3, 4]] == 0.0)

    def test_tick_times_cover_duration(self):
        s = parse_scenario(doc(MINIMAL_MOBILE))
        t = s.tick_times()
        assert len(t) == 41
        assert t[0] == 0.0 and t[-1] == pytest.approx(4.0)

    def test_start_pose_yaw(self):
        d = doc(MINIMAL_MOBILE)
        d["start"] = {"position": [1.0, -2.0, 0.0], "yaw": np.pi / 2}
        s = parse_scenario(d)
        assert np.allclose(s.start.translation, [1.0, -2.0, 0.0])
        assert np.allclose(s.start.rotation @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(domain="aerial"), "domain"),
        (lambda d: d.update(duration=4.03), "whole number"),
        (lambda d: d.update(script=[]), "script"),
        (lambda d: d.update(script=[{"duration": 1.0, "forward": 1.0}]),
         "less than the scenario duration"),
        (lambda d: d.update(landmarks=[[1.0, 2.0]]), "landmarks"),
        pytest.param(lambda d: d.update(landmarks=[[1.0, 2.0, 0.0], [1.0, 2.0]]), "landmarks",
                     id="ragged-landmarks"),
        pytest.param(lambda d: d.update(landmarks=[[1.0, "north", 0.0]]), "landmarks",
                     id="non-numeric-landmarks"),
        pytest.param(lambda d: d.update(landmarks=[[1.0, float("nan"), 0.0]]), "landmarks",
                     id="nan-landmarks"),
        (lambda d: d.update(planar="false"), "planar"),
        (lambda d: d.update(process_noise="no"), "process_noise"),
        (lambda d: d["measurements"]["range"].update(interval=0.37), "whole number"),
        (lambda d: d["measurements"]["range"].update(variance=-1.0), "positive"),
        (lambda d: d["measurements"]["range"].update(scale=2.0), "implausible"),
        (lambda d: d["odometry"].update(variance=[0.0, 1.0]), "positive"),
        (lambda d: d["hyper"].pop("qc_inputs"), "qc_inputs"),
        (lambda d: d["hyper"].update(qc_inputs=[1e-5, -1.0]), "positive"),
        (lambda d: d.update(node_policy="sometimes"), "node_policy"),
        (lambda d: d.update(anchor={"pose_sigma": [-1.0] + [0.0] * 5}),
         "non-negative"),
        (lambda d: d.update(planar_lock={"mode": "diagonal"}), "mode"),
        pytest.param(lambda d: d["measurements"]["range"].update(interval=float("inf")),
                     "measurements.range.interval: must be finite", id="infinite-interval"),
        pytest.param(lambda d: d.update(start={"yaw": float("nan")}), "start.yaw: must be finite",
                     id="nan-yaw"),
        pytest.param(lambda d: d.update(input_rate=1e308), "duration: must be a whole number",
                     id="overflowing-tick-count"),
        pytest.param(lambda d: d.update(duration=10 ** 400), "duration: must be finite",
                     id="integer-too-large-for-a-float"),
        pytest.param(lambda d: d.update(domain=[]), "domain", id="list-domain"),
        pytest.param(lambda d: d.update(planar_lock={"mode": ["full"]}), "planar_lock.mode",
                     id="list-lock-mode"),
    ])
    def test_invalid_documents_are_rejected(self, mutate, match):
        d = doc(MINIMAL_MOBILE)
        mutate(d)
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(d)

    def test_sinusoid_channel_requires_period(self):
        d = doc(MINIMAL_MOBILE)
        d["script"][1]["yaw_rate"] = {"sinusoid": {"amplitude": 0.3}}
        with pytest.raises(ScenarioError, match="period"):
            parse_scenario(d)


class TestContinuumParsing:
    def test_minimal_document_round_trips(self):
        s = parse_scenario(doc(MINIMAL_CONTINUUM))
        assert s.rod.length == 0.2
        assert len(s.rod.disk_arclengths) == 4
        assert np.allclose(s.rod.disk_arclengths, [0.05, 0.1, 0.15, 0.2])
        assert len(s.tension_sets) == 1
        assert s.tension_sets[0][0].tension == 1.0
        assert len(s.configs()) == 1

    def test_explicit_disk_list(self):
        d = doc(MINIMAL_CONTINUUM)
        d["rod"]["disks"] = [0.07, 0.2]
        s = parse_scenario(d)
        assert np.allclose(s.rod.disk_arclengths, [0.07, 0.2])

    def test_configs_cross_sets_with_disturbances(self):
        d = doc(MINIMAL_CONTINUUM)
        d["disturbances"].append({"moment": [0, 0, 0], "span": [0.4, 0.9]})
        d["tension_sets"].append(
            [{"radius": 5e-3, "azimuth": 1.0, "termination": 0.1, "tension": 2.0}])
        s = parse_scenario(d)
        keys = [(i, j) for i, j, _, _ in s.configs()]
        assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(node_count=1), "node_count"),
        (lambda d: d["rod"].update(stiffness=[1.0] * 5), "stiffness"),
        pytest.param(lambda d: d["rod"].update(disks=[]), "rod.disks", id="empty-disks"),
        pytest.param(lambda d: d["rod"].update(disks=[0.1, [0.15, 0.2]]), "rod.disks",
                     id="ragged-disks"),
        pytest.param(lambda d: d["rod"].update(disks=[0.1, "tip"]), "rod.disks",
                     id="non-numeric-disks"),
        pytest.param(lambda d: d["rod"].update(disks=[0.1, float("nan")]), "rod.disks",
                     id="nan-disks"),
        pytest.param(lambda d: d["rod"].update(disks=[0.1, 0.5]), "rod.disks",
                     id="off-rod-disks"),
        (lambda d: d.update(tension_sets=[]), "tension_sets"),
        (lambda d: d["tension_sets"][0][0].update(tension=-1.0), "non-negative"),
        (lambda d: d["disturbances"][0].update(span=[0.9, 0.4]), "span"),
        (lambda d: d["disturbances"][0].update(moment=[1.0]), "moment"),
        (lambda d: d["tip"].update(variance=0.0), "positive"),
    ])
    def test_invalid_documents_are_rejected(self, mutate, match):
        d = doc(MINIMAL_CONTINUUM)
        mutate(d)
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(d)


class TestFileLoading:
    def test_load_scenario_reads_yaml(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(MINIMAL_MOBILE, encoding="utf-8")
        s = load_scenario(path)
        assert s.name == "tiny"

    def test_invalid_yaml_reports_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [unclosed", encoding="utf-8")
        with pytest.raises(ScenarioError, match="bad.yaml"):
            load_scenario(path)

    def test_bundled_scenarios_parse(self):
        mob = bundled_scenario("mobile_twisty")
        con = bundled_scenario("continuum_bench")
        assert mob.duration == 60.0
        assert mob.planar
        assert sum(seg.duration for seg in mob.script) == pytest.approx(60.0)
        assert len(con.configs()) == 9

    def test_bundled_twisty_uses_tuned_hyperparameters(self):
        s = bundled_scenario("mobile_twisty")
        assert np.allclose(s.qc_inputs, [1.77e-5] * 3 + [3.50e-5] * 3)
        assert np.allclose(s.qc_baseline, [2.11e-3] * 3 + [3.94e-2] * 3)
        assert s.range_schedule.variance == pytest.approx(9.00e-4)
        assert s.range_schedule.scale == pytest.approx(1.003)
        assert np.allclose(s.odometry_variance, [5.45e-4, 1.01e-3])

    def test_unknown_bundled_name_lists_available(self):
        with pytest.raises(ScenarioError, match="mobile_twisty"):
            bundled_scenario("nope")


ODD_VALUES = (None, "x", [], {}, [1, [2]], float("nan"), float("inf"), float("-inf"), 0, -1,
              1e308, True, 10 ** 400)
# a value checked against another key's is reported under that key
CROSS_CHECKED = {"input_rate": "duration"}


def key_paths(node, path=""):
    """Every key path below node, written as in ScenarioError messages: a.b[0].c."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        sub = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        yield sub
        yield from key_paths(child, sub)


def replaced(document, path, value):
    """A deep copy of document with the entry at path set to value."""
    out = copy.deepcopy(document)
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = out
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return out


def related(key, path):
    """Whether key is path itself, a key above it or a key below it."""
    short, long = sorted((key, path), key=len)
    return long == short or long.startswith((short + ".", short + "["))


def all_finite(value):
    """Whether every number a parsed scenario holds is finite."""
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(all_finite(v) for v in value)
    if isinstance(value, (float, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    return True


@pytest.mark.parametrize("name, kind", [("mobile_twisty", MobileScenario),
                                        ("continuum_bench", ContinuumScenario)])
def test_every_key_path_takes_odd_values_with_a_named_error(name, kind):
    """Each key path of a bundled document, set to each odd value, parses or names its key.

    A ScenarioError must start with the key path, a key above it or below
    it (CROSS_CHECKED lists the exceptions); any other exception is an
    escape. A document that parses must give a scenario of its kind whose
    numbers are all finite.
    """
    text = (importlib.resources.files("ctgp.scenarios") / f"{name}.yaml").read_text(
        encoding="utf-8")
    document = yaml.safe_load(text)
    wrong = []
    for path in key_paths(document):
        for value in ODD_VALUES:
            try:
                parsed = parse_scenario(replaced(document, path, value))
            except ScenarioError as err:
                key = str(err).split(":")[0]
                if not (related(key, path) or key == CROSS_CHECKED.get(path)):
                    wrong.append((path, value, str(err)))
            except Exception as err:  # noqa: BLE001 - any other class is the escape sought
                wrong.append((path, value, f"{type(err).__name__}: {err}"))
            else:
                if not (isinstance(parsed, kind) and all_finite(parsed)):
                    wrong.append((path, value, "parsed to an invalid scenario"))
    assert wrong == []
