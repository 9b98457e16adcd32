"""Smoke runs of each workload at reduced size, and negative controls that
feed each check a corrupted output. Run with:

    python3 -m pytest -q benchmark
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from ctgp import solver

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def small(name):
    """The named workload, cut down to a few seconds."""
    if name == "dense_twisty":
        return workloads.MobileWorkload(name, ("inputs",), "all", duration=10.0)
    if name == "sparse_5s":
        return workloads.MobileWorkload(name, ("inputs", "wnoa"), "meas-only",
                                        dt_landmark=5.0, off_knot=True, duration=20.0)
    return workloads.RodWorkload(draws=1, configs=3)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(name):
    result, (_, rounds) = run.measure(small(name), seed=3, seconds=0.0)
    assert rounds == 1
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_restores_the_program():
    original = solver.solve
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert solver.solve is not original
        result, _ = run.measure(small("sparse_5s"), seed=3, seconds=0.0, tracer=tracer)
    assert solver.solve is original
    assert not tracer.missing
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["solver.cost_evaluations"] >= metrics["solver.iterations"] > 0
    assert metrics["factors.interpolated_evals"] > 0
    assert metrics["interpolation.queries"] > 0 and metrics["prior.at_calls"] > 0
    assert 0 < metrics["solver.self_s"] < metrics["solver.solve_s"]


def test_a_missing_target_drops_out_of_the_trace():
    tracer = tracing.Tracer()
    targets = tracing.TARGETS
    try:
        tracing.TARGETS = targets + (("ctgp.solver", "no_such_function", "x", None),)
        with tracing.installed(tracer):
            pass
    finally:
        tracing.TARGETS = targets
    assert tracer.missing == ["ctgp.solver.no_such_function"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda f: f() or f())
    inner = tracer.wrap("inner", lambda: None)
    start = tracer.mark()
    outer(inner)
    durations, self_time, _ = tracer.phase(start, tracer.mark())
    assert len(durations["inner"]) == 2
    assert self_time["outer"] == pytest.approx(durations["outer"][0] - sum(durations["inner"]))


@pytest.fixture(scope="module")
def sparse_round():
    workload = small("sparse_5s")
    setup = workload.setup(3)
    estimates = [op.summarise(op.run()) for op in workload.operations(setup)]
    return workload, setup, estimates


@pytest.fixture(scope="module")
def rod_round():
    workload = small("rod_shapes")
    setup = workload.setup(3)
    estimates = [op.summarise(op.run()) for op in workload.operations(setup)]
    return workload, setup, estimates


def _inputs(estimates):
    return next(e for e in estimates if e.method == "inputs")


@pytest.mark.parametrize("fixture", ["sparse_round", "rod_round"])
def test_outputs_pass_their_checks(fixture, request):
    workload, setup, estimates = request.getfixturevalue(fixture)
    assert workload.check_setup(setup) == []
    for est in estimates:
        assert workload.check_estimate(setup, est) == []
    assert workload.check_round(setup, estimates) == []


@pytest.mark.parametrize("fixture", ["sparse_round", "rod_round"])
def test_trajectory_offset_by_10_cm_is_rejected(fixture, request):
    workload, setup, estimates = request.getfixturevalue(fixture)
    est = _inputs(estimates)
    moved = dataclasses.replace(est, trans=est.trans + np.array([0.1, 0.0, 0.0]))
    assert any("position RMSE" in p for p in workload.check_estimate(setup, moved))


@pytest.mark.parametrize("fixture", ["sparse_round", "rod_round"])
def test_swapped_methods_are_rejected(fixture, request):
    workload, setup, estimates = request.getfixturevalue(fixture)
    other = {"inputs": "wnoa", "wnoa": "inputs"}
    swapped = [dataclasses.replace(e, method=other[e.method]) for e in estimates]
    assert workload.check_round(setup, swapped)


@pytest.mark.parametrize("fixture", ["sparse_round", "rod_round"])
def test_covariance_that_is_not_positive_definite_is_rejected(fixture, request):
    workload, setup, estimates = request.getfixturevalue(fixture)
    est = _inputs(estimates)
    cov = est.covariances.copy()
    cov[-1] = -cov[-1]
    assert workload.check_estimate(setup, dataclasses.replace(est, covariances=cov))
    cov = est.covariances.copy()
    cov[0, 0, 1] += 1e-3 * np.max(np.abs(cov[0]))
    assert workload.check_estimate(setup, dataclasses.replace(est, covariances=cov))


def test_jump_beside_a_knot_is_rejected(sparse_round):
    workload, setup, estimates = sparse_round
    est = _inputs(estimates)
    rot, trans = est.probe_beside
    trans = trans.copy()
    trans[len(trans) // 2] += np.array([0.0, 1e-3, 0.0])
    jumped = dataclasses.replace(est, probe_beside=(rot, trans))
    assert any("beside a knot" in p for p in workload.check_estimate(setup, jumped))


def test_corrupted_ranges_are_rejected(sparse_round):
    workload, setup, _ = sparse_round
    ranges = list(setup.truth.ranges)
    sigma = np.sqrt(setup.scenario.range_schedule.variance)
    ranges[5] = dataclasses.replace(ranges[5], value=ranges[5].value + 10 * sigma)
    bad = dataclasses.replace(setup, truth=dataclasses.replace(setup.truth, ranges=tuple(ranges)))
    assert workload.check_setup(bad)
    biased = tuple(dataclasses.replace(r, value=r.value + sigma) for r in setup.truth.ranges)
    bad = dataclasses.replace(setup, truth=dataclasses.replace(setup.truth, ranges=biased))
    assert any("biased" in p for p in workload.check_setup(bad))


def test_stretched_rod_truth_is_rejected(rod_round):
    workload, setup, _ = rod_round
    stretched = [t * 1.01 for t in setup.true_trans]
    assert workload.check_setup(dataclasses.replace(setup, true_trans=stretched))


def test_rmse_matches_a_direct_computation():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 0.5, 20)
    true_rot = np.repeat(np.eye(3)[None], 20, axis=0)
    est_rot = np.stack([[[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                         [0.0, 0.0, 1.0]] for a in angles])
    offsets = rng.normal(size=(20, 3))
    pos, rot = checks.rmse(est_rot, offsets, true_rot, np.zeros((20, 3)))
    assert pos == pytest.approx(np.sqrt(np.mean(np.sum(offsets ** 2, axis=1))))
    assert rot == pytest.approx(np.degrees(np.sqrt(np.mean(angles ** 2))))
