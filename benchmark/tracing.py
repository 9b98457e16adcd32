"""Spans and counts recorded around calls into ctgp, from outside the package.

Each wrapped function or method records a span (name, start, end, parent)
and, where the layer has one, a count taken at the same call. Spans stay in
memory until the run ends. Wrapping replaces the attribute on the class, or
on every loaded ctgp module that bound the function at import, so calls
made inside the package are caught too. A target that a later change
removes or renames is skipped and reported; the run goes on without it.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_prior_batch(counts, args, kwargs, result):
    counts["factors.prior_batch_calls"] += 1
    if not kwargs.get("with_jacobians", True):
        counts["solver.cost_evaluations"] += 1


def _count_solve(counts, args, kwargs, result):
    counts["solver.iterations"] += int(result.iterations)


def _count_expm(counts, args, kwargs, result):
    a = np.asarray(args[0])
    counts["prior.expm_matrices"] += 1 if a.ndim == 2 else int(np.prod(a.shape[:-2]))


def _counter(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


# (module, attribute path, span name, count taken at the call)
TARGETS = (
    ("ctgp.simulate", "simulate_mobile", "simulate.mobile", None),
    ("ctgp.simulate", "simulate_rod", "simulate.rod", _counter("simulate.rod_calls")),
    ("ctgp.experiment", "build_mobile_problem", "experiment.build", None),
    ("ctgp.continuum", "tensions_to_inputs", "continuum.inputs", None),
    ("ctgp.continuum", "estimate_shape", "continuum.estimate_shape", None),
    ("ctgp.prior", "IntervalBlocks.__init__", "prior.build", _counter("prior.blocks_built")),
    ("ctgp.prior", "IntervalBlocks.at", "prior.at", _counter("prior.at_calls")),
    ("ctgp.prior", "expm_ss", "prior.expm", _count_expm),
    ("ctgp.factors", "prior_factor_batch", "factors.prior_batch", _count_prior_batch),
    ("ctgp.factors", "RangeFactor.evaluate", "factors.range", _counter("factors.range_evals")),
    ("ctgp.factors", "PlanarLockFactor.evaluate", "factors.planar_lock",
     _counter("factors.planar_lock_evals")),
    ("ctgp.factors", "InterpolatedFactor.evaluate", "factors.interpolated",
     _counter("factors.interpolated_evals")),
    ("ctgp.factors", "VelocityFactor.evaluate", "factors.velocity",
     _counter("factors.velocity_evals")),
    ("ctgp.factors", "PositionFactor.evaluate", "factors.position",
     _counter("factors.position_evals")),
    ("ctgp.factors", "AnchorFactor.evaluate", "factors.anchor", _counter("factors.anchor_evals")),
    ("ctgp.solver", "solve", "solver.solve", _count_solve),
    ("ctgp.interpolation", "Trajectory.query", "interpolation.query",
     _counter("interpolation.queries")),
)

# per-layer time metrics: metric name -> the span whose durations it sums
SPAN_SECONDS = {
    "factors.range_s": "factors.range",
    "factors.planar_lock_s": "factors.planar_lock",
    "factors.prior_batch_s": "factors.prior_batch",
    "factors.interpolated_s": "factors.interpolated",
    "factors.velocity_s": "factors.velocity",
    "factors.position_s": "factors.position",
    "factors.anchor_s": "factors.anchor",
    "solver.solve_s": "solver.solve",
    "interpolation.query_s": "interpolation.query",
    "prior.at_s": "prior.at",
    "prior.expm_s": "prior.expm",
    "prior.build_s": "prior.build",
    "experiment.build_s": "experiment.build",
    "continuum.inputs_s": "continuum.inputs",
    "continuum.estimate_shape_s": "continuum.estimate_shape",
}
SETUP_SPAN_SECONDS = {
    "simulate.mobile_s": "simulate.mobile",
    "simulate.rod_s": "simulate.rod",
}
ROUND_COUNTS = (
    "factors.range_evals", "factors.planar_lock_evals", "factors.prior_batch_calls",
    "factors.interpolated_evals", "factors.velocity_evals", "factors.position_evals",
    "factors.anchor_evals", "solver.iterations", "solver.cost_evaluations",
    "interpolation.queries", "prior.at_calls", "prior.expm_matrices", "prior.blocks_built",
)
SETUP_COUNTS = ("simulate.rod_calls",)


class Tracer:
    """In-memory span log plus the counts taken at the same calls."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent span index or -1]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self.active = True

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) go unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def mark(self):
        """A position in the span log; spans after it form one phase."""
        return len(self.spans), Counter(self.counts)

    def phase(self, start_mark, end_mark):
        """Per-name span durations, self times and counts between two marks."""
        (lo, counts_lo), (hi, counts_hi) = start_mark, end_mark
        durations = defaultdict(list)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for i in range(lo, hi):
            name_id, start, end, parent = self.spans[i]
            if parent >= lo:
                child_time[parent] += end - start
        for i in range(lo, hi):
            name_id, start, end, _ = self.spans[i]
            name = self.names[name_id]
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[i]
        counts = Counter(counts_hi)
        counts.subtract(counts_lo)
        return durations, self_time, counts

    def write(self, path, meta):
        """Write every span and count as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start", "end", "parent"],
               "spans": self.spans, "counts": dict(self.counts),
               "missing": self.missing}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore."""
    restore = []
    try:
        for module_name, attr, span, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{module_name}.{attr}")
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            wrapped = tracer.wrap(span, original, count)
            if owner is module:
                # every ctgp module that bound the function at import
                holders = [m for n, m in list(sys.modules.items())
                           if (n == "ctgp" or n.startswith("ctgp."))
                           and getattr(m, leaf, None) is original]
            else:
                holders = [owner]
            for holder in holders:
                setattr(holder, leaf, wrapped)
                restore.append((holder, leaf, original))
        yield tracer
    finally:
        for holder, leaf, original in reversed(restore):
            setattr(holder, leaf, original)


def layer_metrics(tracer, setup_phase, round_phase, setups, rounds):
    """Per-layer metrics: estimation layers per round, simulation per set-up.

    Each phase is a (start mark, end mark) pair from Tracer.mark.
    """
    durations, self_time, counts = tracer.phase(*round_phase)
    out = {}
    for metric, span in SPAN_SECONDS.items():
        out[metric] = (sum(durations.get(span, ())) / rounds, "s")
    out["solver.self_s"] = (self_time.get("solver.solve", 0.0) / rounds, "s")
    for metric in ROUND_COUNTS:
        out[metric] = (counts.get(metric, 0) / rounds, "count")
    out["solver.rejected_steps"] = (
        (counts.get("solver.cost_evaluations", 0) - counts.get("solver.iterations", 0))
        / rounds, "count")
    query_us = np.asarray(durations.get("interpolation.query", [0.0])) * 1e6
    out["interpolation.query_us_p50"] = (float(np.percentile(query_us, 50)), "us")
    out["interpolation.query_us_p99"] = (float(np.percentile(query_us, 99)), "us")

    durations, _, counts = tracer.phase(*setup_phase)
    for metric, span in SETUP_SPAN_SECONDS.items():
        out[metric] = (sum(durations.get(span, ())) / setups, "s")
    for metric in SETUP_COUNTS:
        out[metric] = (counts.get(metric, 0) / setups, "count")
    return out
