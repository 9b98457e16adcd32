"""Public constructors and entry points fed odd values: each raises a typed error or succeeds.

Every argument of each call below, in turn, takes each of the odd values of
the scenario suite while the others stay valid. The call must raise an
EstimationError subclass or return; a built-in exception is an escape.
"""

import numpy as np
import pytest

from ctgp import continuum, inputs, interpolation, prior, simulate, solver
from ctgp.errors import (CoverageError, DegenerateInputError, DomainError, EstimationError,
                         HyperparameterError)
from ctgp.liegroup import Pose, exp_map, log_map

ODD_VALUES = (None, "x", [], {}, [1, [2]], float("nan"), float("inf"), float("-inf"), 0, -1,
              1e308, True, 10 ** 400)

STIFFNESS = np.array([1.8e4, 1.8e4, 4.7e4, 2.9e-3, 2.9e-3, 2.2e-3])
ROD = continuum.RodModel(0.2, STIFFNESS, (0.1, 0.2))
TENDONS = (continuum.TendonRoute(5e-3, 0.3, 0.2, 1.0),)
NODES = np.linspace(0.0, 0.2, 5)
HYPER = prior.PriorHyper([1e-2] * 3 + [1e3] * 3)


def _trajectory():
    times = [0.0, 0.5, 1.0]
    blocks = prior.precompute_intervals(inputs.InputProfile.zero(0.0, 1.0), times,
                                        prior.PriorHyper(np.ones(6)))
    nodes = [prior.StateNode(t, Pose.identity(), np.zeros(6)) for t in times]
    sol = solver.solve(solver.Problem(nodes, blocks))
    return interpolation.Trajectory(sol.nodes, blocks, sol.node_covariances,
                                    sol.cross_covariances)


TRAJECTORY = _trajectory()
SEGMENT_VALUES = dict(t0=0.0, t1=1.0, v0=np.ones(6), v1=np.zeros(6), a0=np.zeros(6),
                      a1=np.ones(6))

# name -> (call, its valid keyword arguments)
ENTRY_POINTS = {
    "RodModel": (continuum.RodModel,
                 dict(length=0.2, stiffness=STIFFNESS, disk_arclengths=(0.1, 0.2))),
    "TendonRoute": (continuum.TendonRoute,
                    dict(offset_radius=5e-3, azimuth=0.3, termination_arclength=0.2,
                         tension=1.0)),
    "InputSegment": (inputs.InputSegment, SEGMENT_VALUES),
    "tensions_to_inputs": (continuum.tensions_to_inputs,
                           dict(rod=ROD, tendons=TENDONS, node_arclengths=NODES)),
    "estimate_shape": (continuum.estimate_shape,
                       dict(rod=ROD, tendons=TENDONS, measurement_factors=(), hyper=HYPER,
                            node_count=5)),
    "simulate_rod": (simulate.simulate_rod,
                     dict(rod=ROD, tendons=TENDONS, node_arclengths=NODES,
                          sample_arclengths=[0.1, 0.2], disturbance=None, step=1e-3)),
    "precompute_intervals": (prior.precompute_intervals,
                             dict(profile=inputs.InputProfile((inputs.InputSegment(
                                 **SEGMENT_VALUES),)), node_times=[0.0, 0.5, 1.0],
                                 hyper=HYPER)),
    "Trajectory.query": (TRAJECTORY.query, dict(tau=0.25, with_covariance=True)),
    "exp_map": (exp_map, dict(xi=np.arange(6.0) / 10.0)),
    "log_map": (log_map, dict(pose=exp_map(np.arange(6.0) / 10.0))),
    "PriorHyper": (prior.PriorHyper, dict(qc=np.ones(6))),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_argument_takes_odd_values_with_a_typed_error(name):
    call, valid = ENTRY_POINTS[name]
    call(**valid)
    escapes = []
    for argument in valid:
        for value in ODD_VALUES:
            try:
                call(**dict(valid, **{argument: value}))
            except EstimationError:
                pass
            except Exception as err:  # an escape: collect them all, then fail
                escapes.append(f"{argument}={value!r}: {type(err).__name__}: {err}")
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize("build, error, named", [
    pytest.param(lambda: continuum.RodModel("a", STIFFNESS), HyperparameterError, "'a'",
                 id="rod-length-text"),
    pytest.param(lambda: continuum.RodModel(0.2, "abcdef"), HyperparameterError, "'abcdef'",
                 id="rod-stiffness-text"),
    pytest.param(lambda: continuum.RodModel(0.2, STIFFNESS, ("a",)), DomainError, r"\('a',\)",
                 id="rod-disks-text"),
    pytest.param(lambda: continuum.TendonRoute("a", 0.0, 0.2, 1.0), HyperparameterError, "'a'",
                 id="tendon-radius-text"),
    pytest.param(lambda: continuum.TendonRoute(5e-3, 0.0, 0.2, None), HyperparameterError,
                 "None", id="tendon-tension-none"),
    pytest.param(lambda: continuum.TendonRoute(5e-3, "a", 0.2, 1.0), HyperparameterError,
                 "azimuth.*'a'", id="tendon-azimuth-text"),
    pytest.param(lambda: continuum.TendonRoute(5e-3, float("nan"), 0.2, 1.0),
                 HyperparameterError, "azimuth.*nan", id="tendon-azimuth-nan"),
    pytest.param(lambda: continuum.TendonRoute(5e-3, float("inf"), 0.2, 1.0),
                 HyperparameterError, "azimuth.*inf", id="tendon-azimuth-inf"),
    pytest.param(lambda: inputs.InputSegment("a", 1.0, *np.zeros((4, 6))), DegenerateInputError,
                 "'a'", id="segment-t0-text"),
    pytest.param(lambda: inputs.InputSegment(0.0, 1.0, "abc", *np.zeros((3, 6))),
                 DegenerateInputError, "'abc'", id="segment-v0-text"),
    pytest.param(lambda: continuum.tensions_to_inputs(ROD, (), "abc"), CoverageError, "'abc'",
                 id="tensions-nodes-text"),
    pytest.param(lambda: continuum.estimate_shape(ROD, (), (), HYPER, 5.5), HyperparameterError,
                 "5.5", id="shape-node-count-float"),
    pytest.param(lambda: simulate.simulate_rod(ROD, TENDONS, NODES, [0.1, 0.2], step=0.0),
                 DomainError, "0.0", id="rod-step-zero"),
    pytest.param(lambda: simulate.simulate_rod(ROD, TENDONS, NODES, [0.1, 0.2],
                                               step=float("nan")),
                 DomainError, "nan", id="rod-step-nan"),
    pytest.param(lambda: simulate.simulate_rod(ROD, TENDONS, NODES, [0.1, 0.2], step=-1e-3),
                 DomainError, "-0.001", id="rod-step-negative"),
    pytest.param(lambda: simulate.simulate_rod(ROD, TENDONS, NODES, [0.2], step=-1e-3),
                 DomainError, "-0.001", id="rod-step-negative-tip-only"),
    pytest.param(lambda: simulate.simulate_rod(ROD, TENDONS, NODES, [0.2],
                                               disturbance="load"),
                 DegenerateInputError, "'load'", id="rod-disturbance-text"),
    pytest.param(lambda: prior.precompute_intervals(inputs.InputProfile.zero(0.0, 1.0), "ab",
                                                    HYPER),
                 DegenerateInputError, "'ab'", id="intervals-times-text"),
    pytest.param(lambda: TRAJECTORY.query("a"), DomainError, "'a'", id="query-text"),
    pytest.param(lambda: exp_map([1, 2, 3]), DegenerateInputError, r"\[1, 2, 3\]",
                 id="exp-3-vector"),
    pytest.param(lambda: log_map(None), DegenerateInputError, "None", id="log-none"),
])
def test_reproduced_escapes_raise_a_typed_error_naming_the_value(build, error, named):
    with pytest.raises(error, match=named):
        build()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_prior_raises_a_typed_error_naming_its_first_interval():
    """A huge Qc: Q over an input-driven interval is singular, or the generator overflows."""
    driven = inputs.InputSegment(0.5, 1.0, 0.5 * np.ones(6), np.ones(6), np.zeros(6), np.ones(6))
    still = inputs.InputSegment(0.0, 0.5, *np.zeros((4, 6)))
    profile = inputs.InputProfile([still, driven])
    # the closed-form interval 0 is fine; interval 1's Q is not invertible
    with pytest.raises(HyperparameterError, match=r"^interval 1 \(t = 0\.5 to 1 s\): its noise "
                                                  r"covariance Q is not finite or not invertible"):
        prior.precompute_intervals(profile, [0.0, 0.5, 1.0], prior.PriorHyper([1e154] * 6))
    with pytest.raises(DomainError, match="matrix exponential of a matrix that is not finite"):
        prior.precompute_intervals(profile, [0.0, 0.5, 1.0], prior.PriorHyper([1e308] * 6))
