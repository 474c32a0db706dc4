"""Desk-scale convergence experiments with CSV traces and order reports.

Four experiment families:

* ``fig1``  — extremization of the Rayleigh quotient on the sphere,
  ``Q = diag(n, ..., 1)``, error measured as the angle between the iterate
  and the top eigenvector axis;
* ``fig2``  — ascent of ``tr(T^T Q T N)`` on the rotation group with a
  seeded spectrum, error measured as the distance of ``H = T^T Q T`` from
  its similarly-ordered eigenvalue diagonal;
* ``jacobi`` — Newton diagonalization driving the off-diagonal mass of a
  conjugated symmetric matrix to zero, on the ``Q`` of ``fig2``;
* ``fd-check`` — finite-difference verification of every analytic gradient
  and Hessian form.

Each run is reproducible from its integer seed (numpy default generator,
PCG64) and emits ``<out>/<experiment>-<method>-<seed>.csv`` plus a
key-value ``.report.txt``.  Floats are written with 17 significant digits,
which round-trips doubles exactly.
"""

from __future__ import annotations

import numbers
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceReport, _fro, estimate_order, longest_decreasing_run
from .errors import OrderFitError, SolverError
from .eigensolvers import cg_extreme_eigen, newton_rayleigh, rqi
from .fdcheck import brockett_family_check, jacobi_family_check, rayleigh_family_check
from .rotation import BrockettObjective, JacobiObjective, so_geodesic
from .sampling import (
    random_rotation,
    random_unit_skew,
    random_unit_tangent,
    random_unit_vector,
    rng_from_seed,
)
from .solvers import SolverConfig, conjugate_gradient, newton, steepest_descent
from .sphere import RayleighObjective

FD_GRAD_TARGET = 1e-6
FD_HESS_TARGET = 1e-5

#: Per experiment: its default size, its default line search, the line
#: searches its objective cannot serve (the Rayleigh quotient has no step
#: estimate, the Brockett objective no closed-form step, the Jacobi objective
#: neither), and per method, the default first, the iteration cap, the
#: default start and the scale of a near start.  fd-check runs none of them.
_Experiment = namedtuple("_Experiment", "size search unserved methods")
_EXPERIMENTS = {
    "fig1": _Experiment(21, "exact", ("estimate",), {
        "sd": (2000, "random", 1e-1), "cg": (2000, "random", 1e-1),
        "newton": (100, "near", 1e-1), "rqi": (100, "near", 1e-1),
        "newton-rq": (100, "near", 1e-1)}),
    "fig2": _Experiment(10, "estimate", ("exact",), {
        "sd": (4000, "near", 1e-1), "cg": (4000, "near", 1e-1), "newton": (50, "near", 1e-2)}),
    "jacobi": _Experiment(5, "bracket", ("exact", "estimate"), {"newton": (50, "near", 1e-1)}),
    "fd-check": _Experiment(8, None, (), {"all": (None, None, None)}),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One run's settings; ``None`` (and ``init="default"``) take the
    defaults of ``_EXPERIMENTS``.  Frozen, as two fields are derived (change
    a spec with ``dataclasses.replace``): ``config``, the run's one
    :class:`SolverConfig`, and ``start``, ``("random", None)`` or ``("near",
    eps)``; fd-check reads only ``seed`` and ``out_dir``."""

    experiment: str
    n: int | None = None
    method: str | None = None
    seed: int = 0
    init: str = "default"  # random | near | default (per-method choice)
    init_eps: float | None = None
    max_iter: int | None = None
    tol: float | None = None  # None: SolverConfig's grad_tol
    reset_period: int | None = None
    line_search: str | None = None
    out_dir: str | None = None
    config: SolverConfig = field(init=False)
    start: tuple = field(init=False)

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        size, search, unserved, methods = _EXPERIMENTS[self.experiment]
        if self.n is None:
            object.__setattr__(self, "n", size)
        if self.method is None:
            object.__setattr__(self, "method", next(iter(methods)))
        if self.method not in methods:
            raise ValueError(f"method {self.method!r} not available for {self.experiment}")
        if self.experiment == "fd-check":
            for name, default in (("n", size), ("init", "default"), ("init_eps", None),
                                  ("max_iter", None), ("tol", None), ("reset_period", None),
                                  ("line_search", None)):
                if getattr(self, name) != default:
                    raise ValueError(f"fd-check reads only seed and out_dir, not {name}")
        for name, value in (("n", self.n), ("seed", self.seed)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.init not in ("default", "random", "near"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.init_eps is not None and not 0.0 < self.init_eps < np.inf:
            raise ValueError("near-optimum perturbation scale must be positive and finite")
        cap, mode, eps = methods[self.method]
        mode = mode if self.init == "default" else self.init
        if mode == "random" and self.init_eps is not None:
            raise ValueError("a random start takes no perturbation scale")
        if self.line_search is not None and self.method == "rqi":
            raise ValueError("rqi takes no line search")
        if self.line_search in unserved:
            raise ValueError(f"{self.experiment} takes no {self.line_search!r} line search")
        if self.reset_period is not None and self.method != "cg":
            raise ValueError("only cg takes a reset period")
        settings = dict(grad_tol=self.tol, max_iter=cap if self.max_iter is None else self.max_iter,
                        line_search=self.line_search or search, reset_period=self.reset_period)
        object.__setattr__(self, "config",
                           SolverConfig(**{k: v for k, v in settings.items() if v is not None}))
        object.__setattr__(self, "start", (mode, None if mode == "random" else self.init_eps or eps))


@dataclass
class RunReport:
    spec: ExperimentSpec
    final_value: float = float("nan")
    final_error: float = float("nan")
    iterations: int = 0
    converged: bool = False
    order: ConvergenceReport | None = None
    duration: float = 0.0  # wall time, set by run_experiment
    error_message: str | None = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# problem construction


def fig1_matrix(n):
    """Descending integer spectrum: diag(n, n-1, ..., 1)."""
    return np.diag(np.arange(n, 0, -1.0))


def fig2_matrices(n, seed):
    """The seeded ``Q`` and rotation ``V`` of :func:`jacobi_matrices`, plus
    ``N = diag(n..1)``: returns ``(Q, N, V)``.  ``V`` orders the eigenvalues
    of ``Q`` as ``N`` orders its entries, so it maximizes ``tr(T^T Q T N)``.
    """
    Q, V = jacobi_matrices(n, seed)
    return Q, fig1_matrix(n), V


def jacobi_matrices(n, seed):
    """Seeded symmetric ``Q = V diag(n..1) V^T`` and the rotation ``V``
    (determinant +1, from :func:`random_rotation`) that diagonalizes it:
    returns ``(Q, V)``."""
    V = random_rotation(rng_from_seed(seed), n)
    Q = (V * np.arange(n, 0, -1.0)) @ V.T
    return 0.5 * (Q + Q.T), V


def axis_angle(x, axis):
    """Angle in [0, pi/2] between ``x`` and the line spanned by ``axis``.

    Formed from the orthogonal component, so it stays meaningful far below
    the resolution of ``arccos`` of the dot product.
    """
    c = abs(float(x @ axis))
    s = _fro(x - (x @ axis) * axis)
    return float(np.arctan2(s, c))


# ---------------------------------------------------------------------------
# trace and report files


def trace_filename(spec):
    return f"{spec.experiment}-{spec.method}-{spec.seed}.csv"


def report_filename(spec):
    if spec.experiment == "fd-check":
        return f"fd-check-{spec.seed}.report.txt"
    return f"{spec.experiment}-{spec.method}-{spec.seed}.report.txt"


def _fmt(x):
    return format(float(x), ".17g")


def write_trace_csv(path, trace, value_label):
    # the trace holds floats, which format as _fmt does
    rows = zip(trace.values, trace.grad_norms, trace.errors, trace.steps)
    lines = [f"iter,{value_label},grad_norm,error,step"]
    lines += [f"{i},{v:.17g},{g:.17g},{e:.17g},{s:.17g}" for i, (v, g, e, s) in enumerate(rows)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(path, report):
    """Key-value report; everything but the wall clock is reproducible
    bit-for-bit from (spec, seed), so the duration is deliberately left out."""
    spec = report.spec
    lines = [
        f"experiment: {spec.experiment}",
        f"n: {spec.n}",
        f"method: {spec.method}",
        f"seed: {spec.seed}",
        f"init: {spec.init}",
        f"init_eps: {'none' if spec.init_eps is None else _fmt(spec.init_eps)}",
        f"max_iter: {'default' if spec.max_iter is None else spec.max_iter}",
        f"tol: {_fmt(spec.config.grad_tol)}",
        f"line_search: {spec.line_search or 'default'}",
        f"reset_period: {'default' if spec.reset_period is None else spec.reset_period}",
        f"iterations: {report.iterations}",
        f"converged: {report.converged}",
        f"final_value: {_fmt(report.final_value)}",
        f"final_error: {_fmt(report.final_error)}",
    ]
    if report.order is not None:
        lines += [
            f"order_p: {_fmt(report.order.order)}",
            f"order_theta: {_fmt(report.order.rate)}",
            f"order_residual: {_fmt(report.order.residual)}",
            f"order_window: {report.order.window[0]}..{report.order.window[1]}",
        ]
    else:
        lines.append("order_p: none")
    for key, val in sorted(report.extra.items()):
        lines.append(f"{key}: {val if isinstance(val, str) else _fmt(val)}")
    if report.error_message is not None:
        lines.append(f"solver_error: {report.error_message}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _order_fit(errors):
    window = longest_decreasing_run(errors)
    try:
        return estimate_order(errors, window)
    except OrderFitError:
        return None


def _emit(spec, trace, report, value_label):
    if spec.out_dir is not None:
        os.makedirs(spec.out_dir, exist_ok=True)
        if trace is not None:
            write_trace_csv(os.path.join(spec.out_dir, trace_filename(spec)), trace, value_label)
        write_report(os.path.join(spec.out_dir, report_filename(spec)), report)


# ---------------------------------------------------------------------------
# experiment drivers; they look the solvers up by their module-level names at
# call time, so that a wrapped solver (a tracer, a test double) is the one
# that runs


def _run(solve):
    """``(trace, None)`` from ``solve()``; a solver error gives its partial
    trace and a message for the report instead."""
    try:
        return solve(), None
    except SolverError as exc:
        return exc.trace, f"{type(exc).__name__}: {exc}"


def _finish(spec, run, value_label):
    trace, error_message = run
    report = RunReport(spec, error_message=error_message)
    if trace is not None and len(trace) > 0:
        report.converged = trace.converged
        report.final_value = trace.values[-1]
        report.final_error = trace.errors[-1]
        report.iterations = trace.iterations
        report.order = _order_fit(trace.errors)
    _emit(spec, trace, report, value_label)
    return report, trace


def run_fig1(spec):
    """Rayleigh quotient extremization on S^{n-1} with Q = diag(n..1)."""
    assert spec.experiment == "fig1"
    n = spec.n
    Q = fig1_matrix(n)
    axis = np.zeros(n)
    axis[0] = 1.0
    mode, eps = spec.start
    rng = rng_from_seed(spec.seed)
    if mode == "random":
        x0 = random_unit_vector(rng, n)
    else:
        x0 = axis * np.cos(eps) + random_unit_tangent(rng, axis) * np.sin(eps)

    def error_fn(x):
        return axis_angle(x, axis)

    if spec.method in ("sd", "newton"):
        solver = steepest_descent if spec.method == "sd" else newton
        objective = RayleighObjective(Q, which="max")
        run = _run(lambda: solver(objective, x0, spec.config, error_fn=error_fn))
    else:
        driver = {"cg": cg_extreme_eigen, "rqi": rqi, "newton-rq": newton_rayleigh}[spec.method]
        run = _run(lambda: driver(Q, x0, spec.config, error_fn=error_fn).trace)
    return _finish(spec, run, "rho")


def _run_rotation(spec, objective, T_hat):
    """A solver on SO(n) from a random rotation, or from a unit-speed
    geodesic step of length eps away from the optimum ``T_hat``, drawn
    independently of the seed's matrix draw."""
    mode, eps = spec.start
    rng = rng_from_seed(spec.seed + 1)
    if mode == "random":
        T0 = random_rotation(rng, spec.n)
    else:
        T0 = so_geodesic(T_hat, random_unit_skew(rng, spec.n), eps)
    solver = {"sd": steepest_descent, "cg": conjugate_gradient, "newton": newton}[spec.method]
    return _finish(spec, _run(lambda: solver(objective, T0, spec.config)), "f")


def run_fig2(spec):
    """Trace-objective ascent on SO(n) with seeded Q and N = diag(n..1)."""
    assert spec.experiment == "fig2"
    Q, N, T_hat = fig2_matrices(spec.n, spec.seed)
    return _run_rotation(spec, BrockettObjective(Q, N), T_hat)


def run_jacobi(spec):
    """Newton diagonalization of a seeded symmetric matrix."""
    assert spec.experiment == "jacobi"
    Q, T_hat = jacobi_matrices(spec.n, spec.seed)
    return _run_rotation(spec, JacobiObjective(Q), T_hat)


def run_fd_check(spec):
    """Gradient/Hessian finite-difference sweep over all three problem
    families at the sizes of its table; the report is ``converged`` when
    every family meets both targets."""
    assert spec.experiment == "fd-check"
    families = (
        ("rayleigh", rayleigh_family_check, 8),
        ("brockett", brockett_family_check, 6),
        ("jacobi", jacobi_family_check, 5),
    )
    extra = {}
    worst_grad = 0.0
    worst_hess = 0.0
    for name, check, n in families:
        g, h = check(n=n, seed=spec.seed)
        extra[f"{name}_n"] = str(n)
        extra[f"{name}_grad_err"] = g
        extra[f"{name}_hess_err"] = h
        worst_grad = max(worst_grad, g)
        worst_hess = max(worst_hess, h)
    extra["grad_target"] = FD_GRAD_TARGET
    extra["hess_target"] = FD_HESS_TARGET
    report = RunReport(spec, final_value=worst_grad, final_error=worst_hess, extra=extra,
                       converged=worst_grad < FD_GRAD_TARGET and worst_hess < FD_HESS_TARGET)
    _emit(spec, None, report, "f")
    return report, None


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "jacobi": run_jacobi,
    "fd-check": run_fd_check,
}


def run_experiment(spec):
    """``(report, trace)`` of the spec's runner, with the run's wall time,
    file writing included, as ``report.duration``."""
    t0 = time.perf_counter()
    report, trace = RUNNERS[spec.experiment](spec)
    report.duration = time.perf_counter() - t0
    return report, trace
