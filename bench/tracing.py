"""Spans around the calls into each riemopt layer, for the traced run only.

:func:`install` replaces the public functions of each module (and the
numpy/scipy kernels riemopt calls) with wrappers that record one span per
call: name, start, end, parent span and solve id.  Spans are kept in flat
arrays in memory and written out once, at the end of the run.  The
wrappers record nothing while the tracer is inactive, which it is outside
the solves, so the benchmark's own reference computations are not counted.

A span's self time is its duration minus the durations of its direct
children.  The self times of a solve's spans add up to its root span's
duration only if the spans nest, which :func:`nesting_faults` checks.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

ROOT = "solve"

#: Per-layer metrics derived from plain ``calls``/``s`` spans.
_CALLS_AND_S = {
    "sphere.exp", "sphere.transport", "sphere.value", "sphere.gradient",
    "sphere.line_step", "sphere.newton_step",
    "rotation.exp", "rotation.transport", "rotation.value", "rotation.gradient",
    "rotation.step_estimate", "rotation.error_metric", "rotation.newton_direction",
    "eigensolvers.shift_solve", "core.estimate_order",
    "linalg.svd", "linalg.solve", "linalg.eigvalsh", "linalg.expm",
}
_SOLVERS = ("steepest_descent", "newton", "conjugate_gradient")
_EIGEN_DRIVERS = ("rqi", "newton_rayleigh", "cg_extreme_eigen")

#: Suffixes of the metrics that are exact counts and must repeat.
COUNT_SUFFIXES = (".calls", ".iters", ".evals", ".iterations", ".max_iter_hits",
                  ".newton_fallbacks", ".bytes")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.solve = array("q")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")    # iterations, evaluations or bytes, per span kind
        self.flag = array("b")   # 1 when a solver stopped at its iteration cap
        self._stack = []
        self.active = False
        self.solve_id = -1

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self.aux.append(0)
        self.flag.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_solve(self, solve_id, fn):
        """Call ``fn`` under a root span; return its result."""
        self.solve_id = solve_id
        self.active = True
        i = self.open(self.intern(ROOT))
        try:
            return fn()
        finally:
            self.close(i)
            self.active = False

    def wrap(self, name, fn, note=None):
        """Wrap ``fn`` so each call while active records a span named
        ``name``.  ``note(args, kwargs, result, exc)`` returns the span's
        ``(aux, flag)``."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(nid)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                self.close(i)
                if note is not None:
                    self.aux[i], self.flag[i] = note(args, kwargs, out, exc)

        return traced

    def arrays(self):
        # copies, so that the arrays can still grow afterwards
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "solve": np.array(self.solve, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "aux": np.array(self.aux, dtype=np.int64),
            "flag": np.array(self.flag, dtype=np.int8),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent, duration):
    """Duration of each span minus the summed durations of its direct
    children (``parent`` is -1 for a root)."""
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def nesting_faults(parent, solve, start, end):
    """Number of spans that break the nesting the self times rely on: a
    span that ends before it starts, a child that is not inside its
    parent's interval or belongs to another solve, or a span that starts
    before the previous span with the same parent has ended."""
    parent, solve = np.asarray(parent), np.asarray(solve)
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    faults = int((end < start).sum())
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    faults += int(((start[child] < start[p]) | (end[child] > end[p])
                   | (solve[child] != solve[p])).sum())
    order = np.lexsort((start, parent))
    same_parent = parent[order][1:] == parent[order][:-1]
    faults += int((same_parent & (start[order][1:] < end[order][:-1])).sum())
    return faults


def install(tracer, rm):
    """Wrap riemopt's layer entry points and the linalg kernels it calls.

    ``rm`` holds the riemopt modules as attributes.  Patches are made in
    every namespace a function is looked up from, so calls made inside the
    library are traced as well as the benchmark's own.
    """
    solvers, sphere, rotation = rm.solvers, rm.sphere, rm.rotation
    eigensolvers, experiments = rm.eigensolvers, rm.experiments
    default_max_iter = solvers.SolverConfig().max_iter

    def patch(owner, attr, name, note=None, also=()):
        wrapped = tracer.wrap(name, getattr(owner, attr), note)
        for target in (owner,) + tuple(also):
            setattr(target, attr, wrapped)

    def solver_note(args, kwargs, out, exc):
        # a SolverError carries the partial trace
        trace = out if exc is None else getattr(exc, "trace", None)
        iters = trace.iterations if trace is not None else 0
        config = args[2] if len(args) > 2 else kwargs.get("config")
        cap = default_max_iter if config is None else config.max_iter
        return iters, int(iters >= cap)

    for fn in _SOLVERS:
        patch(solvers, fn, f"solvers.{fn}", solver_note, also=(experiments,))
    patch(solvers, "line_minimize_geodesic", "solvers.line_search",
          lambda a, k, out, exc: ((out.evaluations if out is not None else 0), 0))

    for fn in _EIGEN_DRIVERS:
        patch(eigensolvers, fn, f"eigensolvers.{fn}",
              lambda a, k, out, exc: ((out.iterations if out is not None else 0), 0),
              also=(experiments,))
    patch(eigensolvers, "_shift_solve", "eigensolvers.shift_solve")

    patch(sphere.Sphere, "exp", "sphere.exp")
    patch(sphere.Sphere, "transport", "sphere.transport")
    for attr, name in (("value", "value"), ("gradient", "gradient"),
                       ("exact_line_step", "line_step")):
        patch(sphere.RayleighObjective, attr, f"sphere.{name}")
    patch(sphere, "rayleigh_newton_step", "sphere.newton_step")

    patch(rotation.SpecialOrthogonal, "exp", "rotation.exp")
    patch(rotation.SpecialOrthogonal, "transport", "rotation.transport")
    for cls in (rotation.BrockettObjective, rotation.JacobiObjective):
        for attr in ("value", "gradient", "step_estimate", "error_metric", "newton_direction"):
            if attr in vars(cls):
                patch(cls, attr, f"rotation.{attr}")
    solve_definite = rotation._solve_definite

    def traced_solve_definite(apply_op, b, *args, **kwargs):
        return solve_definite(tracer.wrap("rotation.inner_cg", apply_op), b, *args, **kwargs)

    rotation._solve_definite = traced_solve_definite

    patch(experiments, "run_experiment", "experiments")
    for fn in ("write_trace_csv", "write_report"):
        patch(experiments, fn, "experiments.emit",
              lambda a, k, out, exc: ((os.path.getsize(a[0]) if exc is None else 0), 0))
    patch(experiments, "estimate_order", "core.estimate_order")

    for fn in ("svd", "solve", "eigvalsh"):
        patch(np.linalg, fn, f"linalg.{fn}")
    patch(rotation, "expm", "linalg.expm")


def layer_metrics(tracer, solve_ids):
    """Per-layer run totals over the spans of the given solves.

    Returns ``(metrics, checks)``: ``metrics`` maps metric name to value;
    ``checks`` holds the traced solve time, the summed self times that
    account for it, and the number of spans that do not nest.
    """
    a = tracer.arrays()
    keep = np.isin(a["solve"], np.fromiter(solve_ids, dtype=np.int64))
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)

    def select(*span_names):
        ids = [tracer.intern(n) for n in span_names]
        return keep & np.isin(a["name"], ids)

    m = {}
    for name in sorted(_CALLS_AND_S):
        sel = select(name)
        m[f"{name}.calls"] = int(sel.sum())
        m[f"{name}.s"] = float(dur[sel].sum())

    sel = select(*(f"solvers.{fn}" for fn in _SOLVERS))
    m["solvers.s"] = float(dur[sel].sum())
    m["solvers.self_s"] = float(own[sel].sum())
    m["solvers.iterations"] = int(a["aux"][sel].sum())
    m["solvers.max_iter_hits"] = int(a["flag"][sel].sum())
    sel = select("solvers.line_search")
    m["solvers.line_search.calls"] = int(sel.sum())
    m["solvers.line_search.s"] = float(dur[sel].sum())
    m["solvers.line_search.evals"] = int(a["aux"][sel].sum())
    m["solvers.newton_fallbacks"] = int((sel & (parent_name == tracer.intern("solvers.newton"))).sum())

    sel = select(*(f"eigensolvers.{fn}" for fn in _EIGEN_DRIVERS))
    m["eigensolvers.s"] = float(dur[sel].sum())
    m["eigensolvers.self_s"] = float(own[sel].sum())
    m["eigensolvers.iterations"] = int(a["aux"][sel].sum())

    sel = select("rotation.inner_cg")
    m["rotation.inner_cg.iters"] = int(sel.sum())
    m["rotation.inner_cg.s"] = float(dur[sel].sum())

    m["experiments.s"] = float(dur[select("experiments")].sum())
    sel = select("experiments.emit")
    m["experiments.emit.s"] = float(dur[sel].sum())
    m["experiments.emit.bytes"] = int(a["aux"][sel].sum())

    root = select(ROOT)
    solve_s = float(dur[root].sum())
    m["trace.solve_s"] = solve_s
    m["trace.unattributed_s"] = float(own[root].sum())
    checks = {
        "solve_s": solve_s,
        "self_sum_s": float(own[keep].sum()),
        "nesting_faults": nesting_faults(a["parent"], a["solve"], a["start"], a["end"]),
        "spans": int(keep.sum()),
    }
    return m, checks


def count_mismatches(first, second):
    """Names of the exact-count metrics that differ between two runs."""
    return sorted(k for k in first if k.endswith(COUNT_SUFFIXES) and first[k] != second.get(k))
