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

#: Each experiment's methods, its default first, and its default size.
_METHODS = {
    "fig1": ("sd", "cg", "newton", "rqi", "newton-rq"),
    "fig2": ("sd", "cg", "newton"),
    "jacobi": ("newton",),
    "fd-check": ("all",),
}
_SIZES = {"fig1": 21, "fig2": 10, "jacobi": 5, "fd-check": 8}
#: Line searches an experiment's objective cannot serve: the Rayleigh
#: quotient has no step estimate, the Brockett objective no closed-form
#: step, the Jacobi objective neither.
_UNSERVED_SEARCHES = {"fig1": ("estimate",), "fig2": ("exact",), "jacobi": ("exact", "estimate")}


def _start_mode(spec):
    """``'random'`` or ``'near'``: the spec's init mode, or when it has none
    its method's default start, at random for ``fig1`` sd and cg and near
    the optimum for every other run."""
    if spec.init != "default":
        return spec.init
    return "random" if spec.experiment == "fig1" and spec.method in ("sd", "cg") else "near"


@dataclass
class ExperimentSpec:
    experiment: str
    n: int | None = None  # None: the experiment's default size
    method: str | None = None  # None: the experiment's default method
    seed: int = 0
    init: str = "default"  # random | near | default (per-method choice)
    init_eps: float | None = None
    max_iter: int | None = None
    tol: float = 1e-12
    reset_period: int | None = None
    line_search: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.experiment not in _METHODS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n is None:
            self.n = _SIZES[self.experiment]
        if self.method is None:
            self.method = _METHODS[self.experiment][0]
        if self.method not in _METHODS[self.experiment]:
            raise ValueError(f"method {self.method!r} not available for {self.experiment}")
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
        if _start_mode(self) == "random" and self.init_eps is not None:
            raise ValueError("a random start takes no perturbation scale")
        if self.line_search is not None and self.method == "rqi":
            raise ValueError("rqi takes no line search")
        if self.line_search in _UNSERVED_SEARCHES.get(self.experiment, ()):
            raise ValueError(f"{self.experiment} takes no {self.line_search!r} line search")
        if self.reset_period is not None and self.method != "cg":
            raise ValueError("only cg takes a reset period")
        SolverConfig(grad_tol=self.tol, max_iter=0 if self.max_iter is None else self.max_iter,
                     line_search=self.line_search or "bracket", reset_period=self.reset_period)


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
        f"tol: {_fmt(spec.tol)}",
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


def _start(spec, rng, default_eps, random_start, near_start):
    """Start point: ``random_start(rng)`` or ``near_start(rng, eps)``, as
    :func:`_start_mode` says."""
    if _start_mode(spec) == "random":
        return random_start(rng)
    return near_start(rng, spec.init_eps if spec.init_eps is not None else default_eps)


def _rotation_start(spec, T_hat, default_eps):
    """Random rotation, or a unit-speed geodesic step of length eps away
    from ``T_hat``, drawn independently of the seed's matrix draw."""
    return _start(spec, rng_from_seed(spec.seed + 1), default_eps,
                  lambda rng: random_rotation(rng, spec.n),
                  lambda rng, eps: so_geodesic(T_hat, random_unit_skew(rng, spec.n), eps))


def _config(spec, max_iter, line_search):
    """Solver knobs from the spec, with the experiment's defaults for the
    iteration cap and the line search."""
    return SolverConfig(
        grad_tol=spec.tol,
        max_iter=spec.max_iter if spec.max_iter is not None else max_iter,
        line_search=spec.line_search or line_search,
        reset_period=spec.reset_period,
    )


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
    x0 = _start(spec, rng_from_seed(spec.seed), 1e-1,
                lambda rng: random_unit_vector(rng, n),
                lambda rng, eps: axis * np.cos(eps) + random_unit_tangent(rng, axis) * np.sin(eps))

    def error_fn(x):
        return axis_angle(x, axis)

    config = _config(spec, 2000 if spec.method in ("sd", "cg") else 100, "exact")
    if spec.method in ("sd", "newton"):
        solver = steepest_descent if spec.method == "sd" else newton
        objective = RayleighObjective(Q, which="max")
        run = _run(lambda: solver(objective, x0, config, error_fn=error_fn))
    else:
        driver = {"cg": cg_extreme_eigen, "rqi": rqi, "newton-rq": newton_rayleigh}[spec.method]
        run = _run(lambda: driver(Q, x0, config, error_fn=error_fn).trace)
    return _finish(spec, run, "rho")


def run_fig2(spec):
    """Trace-objective ascent on SO(n) with seeded Q and N = diag(n..1)."""
    assert spec.experiment == "fig2"
    Q, N, T_hat = fig2_matrices(spec.n, spec.seed)
    objective = BrockettObjective(Q, N)
    T0 = _rotation_start(spec, T_hat, 1e-2 if spec.method == "newton" else 1e-1)
    config = _config(spec, 4000 if spec.method in ("sd", "cg") else 50, "estimate")
    solver = {"sd": steepest_descent, "cg": conjugate_gradient, "newton": newton}[spec.method]
    return _finish(spec, _run(lambda: solver(objective, T0, config)), "f")


def run_jacobi(spec):
    """Newton diagonalization of a seeded symmetric matrix."""
    assert spec.experiment == "jacobi"
    Q, T_hat = jacobi_matrices(spec.n, spec.seed)
    objective = JacobiObjective(Q)
    T0 = _rotation_start(spec, T_hat, 1e-1)
    config = _config(spec, 50, "bracket")
    return _finish(spec, _run(lambda: newton(objective, T0, config)), "f")


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
