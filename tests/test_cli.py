import csv
import re

import numpy as np
import pytest

from ctgp.cli import main
from ctgp.experiment import FIG3_COLUMNS, TRAJECTORY_COLUMNS

SCENARIO = """
schema_version: 1
domain: mobile
name: clirun
duration: 8.0
input_rate: 10.0
seed: 5
process_noise: true
script:
  - {duration: 5.0, forward: 1.0, yaw_rate: 0.4}
  - {duration: 3.0, forward: {ramp: [1.0, 0.2]}, yaw_rate: -0.5}
landmarks:
  - [4.0, 2.0, 0.0]
  - [-3.0, 5.0, 0.0]
  - [2.0, -4.0, 0.0]
measurements:
  range: {interval: 0.5, variance: 9.0e-4}
odometry:
  variance: [5.45e-4, 1.01e-3]
hyper:
  qc_inputs: [1.77e-5, 3.50e-5]
  qc_baseline: [2.11e-3, 3.94e-2]
anchor:
  pose_sigma: [0.03, 0.03, 0.0, 0.0, 0.0, 0.02]
  bias_sigma: [0.05, 0.0, 0.0, 0.0, 0.0, 0.05]
planar_lock: {mode: full, information: 1.0e+6}
"""

CONTINUUM = """
schema_version: 1
domain: continuum
name: clirod
seed: 3
node_count: 7
rod:
  length: 0.2
  stiffness: [1.8e+4, 1.8e+4, 4.7e+4, 2.9e-3, 2.9e-3, 2.2e-3]
  disks: 6
hyper:
  qc: [1.0e-2, 1.0e+3]
tip:
  variance: 4.0e-7
tension_sets:
  - - {radius: 5.0e-3, azimuth: 0.0, termination: 0.2, tension: 1.5}
disturbances:
  - {moment: [0.0, 8.0e-4, 0.0], span: [0.6, 1.0]}
"""


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO, encoding="utf-8")
    return str(path)


@pytest.fixture()
def rod_config(tmp_path):
    path = tmp_path / "rod.yaml"
    path.write_text(CONTINUUM, encoding="utf-8")
    return str(path)


def read_header(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline().strip().split(",")


class TestSimulateCommand:
    def test_writes_truth_and_sensor_logs(self, config, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert read_header(out / "truth.csv") == [
            "time", "x", "y", "z", "rx", "ry", "rz",
            "vx", "vy", "vz", "wx", "wy", "wz"]
        assert read_header(out / "input_log.csv") == [
            "time", "vx", "vy", "vz", "wx", "wy", "wz"]
        assert read_header(out / "range_log.csv") == [
            "time", "landmark_index", "range"]
        truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)
        assert truth.shape == (81, 13)
        assert "81 ticks" in capsys.readouterr().out

    def test_seed_flag_changes_the_draws(self, config, tmp_path):
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        main(["simulate", "--config", config, "--out", str(a)])
        main(["simulate", "--config", config, "--out", str(b), "--seed", "9"])
        main(["simulate", "--config", config, "--out", str(c), "--seed", "9"])
        base = (a / "truth.csv").read_bytes()
        other = (b / "truth.csv").read_bytes()
        assert base != other
        assert other == (c / "truth.csv").read_bytes()


class TestEstimateCommand:
    def test_writes_trajectory_and_metrics(self, config, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(["estimate", "--config", config, "--out", str(out),
                     "--method", "inputs", "--nodes", "meas-only",
                     "--dt-landmark", "1.0"])
        assert code == 0
        assert read_header(out / "trajectory.csv") == TRAJECTORY_COLUMNS
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape == (81, 31)
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 2
        assert "meas-only" in metrics[1]
        summary = capsys.readouterr().out
        assert "converged=True" in summary
        # 1 s nodes over 8 s: the coarse start solves 4 s nodes first
        assert re.search(r"start=coarse \(\d+ \+ \d+ iterations\)", summary)

    def test_repeat_runs_are_byte_identical(self, config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", config, "--out", str(a)])
        main(["estimate", "--config", config, "--out", str(b)])
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()

    def test_method_flag_switches_the_estimator(self, config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", config, "--out", str(a)])
        main(["estimate", "--config", config, "--out", str(b),
              "--method", "wnoa"])
        ma = (a / "metrics.csv").read_text().splitlines()[1]
        mb = (b / "metrics.csv").read_text().splitlines()[1]
        assert ",inputs," in ma and ",wnoa," in mb


class TestSweepCommand:
    def test_one_metrics_row_per_setting(self, config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", config, "--out", str(out),
                     "--dt-landmark", "1.0,2.0"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 5
        printed = capsys.readouterr().out
        assert printed.count("inputs") == 2 and printed.count("wnoa") == 2


class TestFig3Command:
    def test_writes_all_four_curves(self, tmp_path):
        out = tmp_path / "fig3"
        assert main(["fig3", "--out", str(out)]) == 0
        for variant in ("velocity", "acceleration"):
            for kind in ("prior", "posterior"):
                path = out / f"fig3_{variant}_{kind}.csv"
                assert read_header(path) == FIG3_COLUMNS
                rows = np.loadtxt(path, delimiter=",", skiprows=1)
                assert rows.shape == (301, 25)


class TestContinuumCommand:
    def test_runs_both_methods_by_default(self, rod_config, tmp_path, capsys):
        out = tmp_path / "rod"
        code = main(["continuum", "--config", rod_config, "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3
        printed = capsys.readouterr().out
        assert "inputs" in printed and "wnoa" in printed

    def test_method_flag_restricts_the_run(self, rod_config, tmp_path):
        out = tmp_path / "rod"
        main(["continuum", "--config", rod_config, "--out", str(out),
              "--method", "inputs"])
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_seed_flag_changes_the_tip_draws(self, rod_config, tmp_path):
        def rows(seed, run):
            out = tmp_path / f"{seed}-{run}"
            main(["continuum", "--config", rod_config, "--out", str(out),
                  "--method", "inputs", "--seed", str(seed)])
            with open(out / "metrics.csv", encoding="utf-8") as fh:
                return [{k: v for k, v in row.items() if k != "solve_time"}
                        for row in csv.DictReader(fh)]

        first = rows(5, 0)
        assert rows(5, 1) == first
        assert [r["position_rmse"] for r in rows(6, 0)] != [r["position_rmse"] for r in first]


class TestErrors:
    def test_unknown_bundle_name_exits_with_error(self, capsys):
        assert main(["estimate", "--config", "not_a_scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_file_exits_with_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 3\ndomain: mobile\n", encoding="utf-8")
        assert main(["estimate", "--config", str(bad)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_infinite_scenario_number_exits_with_the_key(self, tmp_path, capsys):
        bad = tmp_path / "inf.yaml"
        bad.write_text(SCENARIO.replace("interval: 0.5", "interval: .inf"), encoding="utf-8")
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: measurements.range.interval: ") and "Traceback" not in err

    def test_integer_too_large_for_a_float_exits_with_the_key(self, tmp_path, capsys):
        bad = tmp_path / "huge.yaml"
        bad.write_text(SCENARIO.replace("duration: 8.0", "duration: 1" + "0" * 400),
                       encoding="utf-8")
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration: ") and "Traceback" not in err

    def test_integer_too_large_for_a_float_in_a_list_exits_with_the_key(self, tmp_path, capsys):
        bad = tmp_path / "huge_landmark.yaml"
        bad.write_text(SCENARIO.replace("[4.0, 2.0, 0.0]", "[4.0, 1" + "0" * 400 + ", 0.0]"),
                       encoding="utf-8")
        assert main(["estimate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: landmarks: ") and "Traceback" not in err
