"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload sparse_5s --seed 1 --seconds 10 --trace 0

The workload is set up at least SETUP_MIN_REPEATS times and until
SETUP_MIN_SECONDS have passed (setup_s is the median). Then whole rounds
of its operations run, one after another, until --seconds have passed;
at least one round always runs. estimate_s is the median time of a
round's operations, checks excluded. With --trace 1 every call
into the traced layers is recorded, the per-layer metrics are printed
instead of the end-to-end ones, and the spans are written under
benchmark/traces/. The last line of standard output is the JSON result;
a readable summary and any failed check go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
# OpenBLAS, MKL and OpenMP pools: one thread, so a run neither competes with
# itself for the cores nor varies with how many happen to be free
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed, seconds, tracer=None):
    """Set up, run whole rounds for `seconds`, check; returns the result dict."""
    import numpy as np

    import tracing
    import workloads

    clock = time.perf_counter
    problems = []
    # the benchmark's own checks stay out of the trace
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext

    setup_start = tracer.mark() if tracer else None
    setups, setup_times = [], []
    while len(setups) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = clock()
        setups.append(workload.setup(seed))
        setup_times.append(clock() - t0)
    setup_end = tracer.mark() if tracer else None
    with untraced():
        first = workload.fingerprint(setups[0])
        if any(not np.array_equal(first, workload.fingerprint(s)) for s in setups[1:]):
            problems.append("repeated set-ups gave different inputs")
        setup = setups[-1]
        del setups
        problems += workload.check_setup(setup)

    attempted = failed = 0
    round_times, accuracies = [], []
    deadline = clock() + seconds
    round_start = tracer.mark() if tracer else None
    while True:
        busy = 0.0
        estimates = []
        for op in workload.operations(setup):
            attempted += 1
            t0 = clock()
            try:
                raw = op.run()
            except Exception:
                busy += clock() - t0
                failed += 1
                print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            busy += clock() - t0
            with untraced():
                est = op.summarise(raw)
                found = workload.check_estimate(setup, est)
            if found:
                failed += 1
                problems += found
            estimates.append(est)
        with untraced():
            problems += workload.check_round(setup, estimates)
            if any(e.method == "inputs" for e in estimates):
                accuracies.append(workloads.pooled_accuracy(estimates))
        round_times.append(busy)
        if clock() >= deadline:
            break
    round_end = tracer.mark() if tracer else None
    if not accuracies:
        raise SystemExit("every inputs-method operation failed; no accuracy to report")
    if any(a != accuracies[0] for a in accuracies[1:]):
        problems.append("rounds on identical inputs gave different estimates")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "estimate_s": (statistics.median(round_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB"),
            "position_rmse_m": (accuracies[0][0], "m"),
            "rotation_rmse_deg": (accuracies[0][1], "deg"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, (setup_start, setup_end),
                                        (round_start, round_end),
                                        len(setup_times), len(round_times))
        metrics["traced.estimate_s"] = (statistics.median(round_times), "s")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }, (len(setup_times), len(round_times))


def main(argv=None):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # the benchmark measures the source tree it sits in, not an installed copy
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.make(args.workload)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result, (setups, rounds) = measure(workload, args.seed, args.seconds, tracer)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json.gz",
                     {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "setups": setups, "rounds": rounds})
    else:
        result, (setups, rounds) = measure(workload, args.seed, args.seconds)

    print(f"{args.workload} seed {args.seed}: {setups} set-ups, {rounds} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"correct {result['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
