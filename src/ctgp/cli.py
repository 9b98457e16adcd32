"""Command-line front end.

Subcommands cover the simulated workflows end to end: ``simulate`` writes
ground truth and sensor logs, ``estimate`` solves one run and writes the
estimated trajectory with per-state covariances, ``sweep`` scores both
methods across measurement sparsities, ``fig3`` samples the illustration
curves, and ``continuum`` runs the rod benchmark. All outputs are CSV and
all randomness is seeded, so a repeated invocation reproduces its files
byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .errors import EstimationError
from .experiment import (FIG3_COLUMNS, reproduce_fig3, run_continuum, run_experiment,
                         sweep, write_csv, write_fig3_csv, write_metrics_csv,
                         write_trajectory_csv, write_truth_csv)
from .scenario import bundled_scenario, load_scenario
from .simulate import simulate_mobile

_DEFAULT_MOBILE = "mobile_twisty"
_DEFAULT_CONTINUUM = "continuum_bench"


def _load(config, fallback):
    if config is None:
        return bundled_scenario(fallback)
    if os.path.exists(config):
        return load_scenario(config)
    return bundled_scenario(config)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(args):
    scenario = _load(args.config, _DEFAULT_MOBILE)
    truth = simulate_mobile(scenario, seed=args.seed)
    out = _ensure_dir(args.out)

    write_truth_csv(os.path.join(out, "truth.csv"), truth)
    write_csv(os.path.join(out, "input_log.csv"),
              ["time", "vx", "vy", "vz", "wx", "wy", "wz"],
              np.column_stack([truth.times, truth.input_velocities]))

    write_csv(os.path.join(out, "range_log.csv"), ["time", "landmark_index", "range"],
              [[s.time, s.landmark_index, s.value] for s in truth.ranges])

    print(f"simulated {scenario.name}: {len(truth.times)} ticks, "
          f"{len(truth.ranges)} range measurements -> {out}")
    return 0


def cmd_estimate(args):
    scenario = _load(args.config, _DEFAULT_MOBILE)
    result = run_experiment(scenario, method=args.method,
                            node_policy=args.nodes,
                            dt_landmark=args.dt_landmark, seed=args.seed)
    out = _ensure_dir(args.out)
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), result.rows)
    write_metrics_csv(os.path.join(out, "metrics.csv"), [result.metrics])
    m = result.metrics
    sol = result.solution
    print(f"{m.scenario} method={m.method} nodes={m.node_policy} "
          f"dt_landmark={m.dt_landmark:g}: position rmse {m.position_rmse:.4f} m, "
          f"rotation rmse {m.rotation_rmse:.4f} rad, "
          f"{m.node_count} states, solve {m.solve_time:.2f} s, "
          f"start={sol.start} ({sol.coarse_iterations} + {sol.iterations} iterations), "
          f"converged={m.converged}")
    return 0 if m.converged else 1


def cmd_sweep(args):
    scenario = _load(args.config, _DEFAULT_MOBILE)
    dt_values = tuple(float(v) for v in args.dt_landmark.split(",")) \
        if args.dt_landmark else (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    metrics = sweep(scenario, dt_values=dt_values, node_policy=args.nodes,
                    seed=args.seed)
    out = _ensure_dir(args.out)
    write_metrics_csv(os.path.join(out, "metrics.csv"), metrics)
    for m in metrics:
        print(f"dt_landmark={m.dt_landmark:<4g} {m.method:6s} "
              f"rmse={m.position_rmse:.4f} m  states={m.node_count}  "
              f"converged={m.converged}")
    return 0 if all(m.converged for m in metrics) else 1


def cmd_fig3(args):
    out = _ensure_dir(args.out)
    for variant in ("velocity", "acceleration"):
        fig = reproduce_fig3(variant)
        for kind in ("prior", "posterior"):
            path = os.path.join(out, f"fig3_{variant}_{kind}.csv")
            write_fig3_csv(path, fig[kind])
        print(f"fig3 {variant}: {len(fig['times'])} samples per curve, "
              f"measurement at {np.round(fig['measured_position'], 4)}")
    print(f"wrote {4} curve files with columns: {', '.join(FIG3_COLUMNS[:4])}, ...")
    return 0


def cmd_continuum(args):
    scenario = _load(args.config, _DEFAULT_CONTINUUM)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    metrics = []
    methods = ("inputs", "wnoa") if args.method is None else (args.method,)
    for method in methods:
        metrics.extend(run_continuum(scenario, method=method))
    out = _ensure_dir(args.out)
    write_metrics_csv(os.path.join(out, "metrics.csv"), metrics)
    for m in metrics:
        print(f"{m.config:18s} {m.method:6s} disk rmse {m.position_rmse*1e3:7.3f} mm"
              f"  solve {m.solve_time*1e3:5.1f} ms  converged={m.converged}")
    return 0 if all(m.converged for m in metrics) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctgp",
        description="Continuous-time trajectory estimation with velocity and "
                    "acceleration inputs on SE(3).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario file or bundled scenario name")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="write truth and sensor logs")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="solve one run and write the trajectory")
    common(p)
    p.add_argument("--method", choices=("inputs", "wnoa"), default="inputs",
                   help="use odometry as prior inputs or as velocity measurements")
    p.add_argument("--nodes", choices=("all", "meas-only"), default=None,
                   help="estimation times: every input tick or only "
                        "measurement times")
    p.add_argument("--dt-landmark", type=float, default=None, dest="dt_landmark",
                   help="spacing of the range measurements kept, in seconds")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sweep", help="score both methods across sparsities")
    common(p)
    p.add_argument("--nodes", choices=("all", "meas-only"), default="meas-only")
    p.add_argument("--dt-landmark", default=None, dest="dt_landmark",
                   help="comma-separated spacings, e.g. 0.5,1,2,5")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fig3", help="sample the prior and posterior "
                                    "illustration curves")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_fig3)

    p = sub.add_parser("continuum", help="run the rod shape benchmark")
    common(p)
    p.add_argument("--method", choices=("inputs", "wnoa"), default=None,
                   help="estimate with one method only (default: both)")
    p.set_defaults(fn=cmd_continuum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EstimationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
