"""Symmetric eigenpair drivers built on sphere geometry: the generic Newton
iteration and geodesic conjugate gradient run on the Rayleigh quotient,
and the classical quotient iteration (solve and renormalize), a step that
Newton's map wraps on the solvers' one loop, so it shares Newton's declined-step
fallback and divergence guard.  This module holds no iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import solvers
from .core import IterationTrace
from .errors import SolverError
from .solvers import SolverConfig, conjugate_gradient, newton
# _shift_solve is looked up here by name, so that it can be wrapped
from .sphere import (RayleighObjective, _ReducedRayleigh, _reflect, _rescaled, _shift_solve,
                     normalized_start, sphere_log)


@dataclass
class EigenResult:
    """Eigenpair estimate; ``converged`` and ``iterations`` read the loop's
    ``trace``, stopped as :func:`_on_quotient` says."""
    eigenvalue: float
    eigenvector: np.ndarray
    trace: IterationTrace

    @property
    def converged(self) -> bool:
        return self.trace.converged

    @property
    def iterations(self) -> int:
        return self.trace.iterations


def _on_quotient(solver, Q, x0, config, error_fn, which="max") -> EigenResult:
    """``solver`` on the Rayleigh quotient from ``x0 / |x0|``, default error
    ``|Qx - rho x|``, converged once the gradient ``2(Qx - rho x)`` drops below
    ``max(2 grad_tol |Q|_F, gradient_floor)``.  It runs on ``T`` for
    ``Q = P T P^T`` from ``P^T x0 / |x0|``, O(n) per step, and every exit, a
    :class:`~riemopt.errors.SolverError`'s too, maps the trace back by
    :func:`_mapped_back`; a tridiagonal ``Q`` is its own ``T``.  A caller's ``error_fn`` sees
    every iterate, once per row in row order; the trace keeps the first and last."""
    objective = RayleighObjective(Q, which)
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(objective.Q_fro, np.finfo(float).tiny)
    config = replace(config, grad_tol=2.0 * config.grad_tol * scale)
    x = normalized_start(x0)
    if objective._reduction()[0] is None:  # its own T: nothing to map back
        trace = solver(objective, x, config, error_fn=error_fn or objective.residual_norm)
        return EigenResult(trace.values[-1], trace.points[-1], trace)
    reduced, seen = _ReducedRayleigh(objective), []  # seen: the loop's points, row by row

    def record(z):
        seen.append(z)
        return reduced.residual_norm(z) if error_fn is None else 0.0

    try:
        trace = solver(reduced, _reflect(objective, x, "T"), config, error_fn=record)
    except SolverError as exc:
        exc.trace = _mapped_back(objective, exc.trace, seen, error_fn)
        raise
    trace = _mapped_back(objective, trace, seen, error_fn)
    return EigenResult(trace.values[-1], trace.points[-1], trace)


def _mapped_back(objective, trace, seen, error_fn):
    """``trace`` with the loop's points ``seen`` mapped to ``P z`` by one ormqr, of which it
    keeps copies of the first and last; the loop's values, gradient norms and steps; and
    ``error_fn`` on every mapped point, or the loop's errors but a dense last one."""
    points = _reflect(objective, np.array(seen).T, "N").T if seen else []
    errors = ([error_fn(p) for p in points] if error_fn else
              trace.errors[:-1] + [objective.residual_norm(p) for p in points[-1:]])
    out = IterationTrace(converged=trace.converged)
    for row in zip(points, trace.values, trace.grad_norms, errors, trace.steps):
        out.append(*row)
    out.points = [p.copy() for p in out.points]  # not views that hold the whole block
    return out


def newton_rayleigh(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Tangent-space Newton iteration for an eigenpair of symmetric ``Q``:
    :func:`~riemopt.solvers.newton` on the Rayleigh quotient, run as :func:`_on_quotient` says.

    Each step solves ``y = (Q - rho I)^{-1} x`` and follows the great
    circle along ``H = -x + y / (x^T y)`` to ``exp_x(H)``; the trace records
    the geodesic parameter 1.0.  A degenerate pivot ``x^T y`` takes a
    gradient step under ``config.line_search`` instead.  A bad ``Q``
    raises ValueError, a zero or non-finite start
    :class:`~riemopt.errors.NotUnitDirection`."""
    return _on_quotient(newton, Q, x0, config, error_fn)


def _rqi_step(objective, x):
    y, ny = _rescaled(_shift_solve(objective, objective.report_value(x), x))
    x_next = y / ny
    if float(x_next @ x) < 0.0:
        x_next = -x_next
    return x_next, sphere_log(x, x_next)[1]


def rqi(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Rayleigh quotient iteration, the step map ``x <- y / |y|`` on the loop of
    :func:`~riemopt.solvers.newton`, for ``y = (Q - rho I)^{-1} x`` and ``rho = x^T (Qx)``,
    signed so successive iterates keep a positive inner product; the trace records
    each step's angle by the arctan2 of :func:`~riemopt.sphere.sphere_log` (arccos
    reads one below 1.5e-8 as 0).  It runs as :func:`_on_quotient` says, and bad
    input raises as in :func:`newton_rayleigh`."""
    return _on_quotient(partial(solvers._newton, step=_rqi_step), Q, x0, config, error_fn)


def cg_extreme_eigen(Q, x0, config=None, which="max", error_fn=None) -> EigenResult:
    """Conjugate-gradient ascent (``which='max'``) or descent
    (``which='min'``) of the Rayleigh quotient, with its closed-form
    geodesic line search whatever ``config.line_search`` says.  The
    direction resets as :func:`~riemopt.solvers.conjugate_gradient` says:
    every ``dim S^{n-1} = n - 1`` steps unless ``config.reset_period`` is set.
    It runs as :func:`_on_quotient` says."""
    config = replace(config or SolverConfig(), line_search="exact")
    return _on_quotient(conjugate_gradient, Q, x0, config, error_fn, which)
