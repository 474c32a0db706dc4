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
# _shift_solve is looked up here by name, so that it can be wrapped; it
# solves on the objective's checked Q (or T) and its one reduction
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


def _on_quotient(solver, Q, x0, config, error_fn, which="max", reduce=False) -> EigenResult:
    """``solver`` on the Rayleigh quotient from ``x0 / |x0|``, default error
    ``|Qx - rho x|``.  It stops by the solvers' rule with ``grad_tol`` read
    relative to ``|Q|_F``: converged once the gradient ``2(Qx - rho x)``
    drops below ``max(2 grad_tol |Q|_F, gradient_floor)``.  With ``reduce`` it
    runs on ``T`` for ``Q = P T P^T`` from ``P^T x0 / |x0|``, O(n) per step,
    and every exit, a :class:`~riemopt.errors.SolverError`'s too, maps the
    trace back by :func:`_mapped_back`: two ormqr calls per solve in all."""
    objective = RayleighObjective(Q, which)
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(objective.Q_fro, np.finfo(float).tiny)
    config = replace(config, grad_tol=2.0 * config.grad_tol * scale)
    x, error_fn = normalized_start(x0), error_fn or objective.residual_norm
    if not reduce:
        trace = solver(objective, x, config, error_fn=error_fn)
    else:
        try:  # the errors are formed on the points mapped back
            trace = solver(_ReducedRayleigh(objective), _reflect(objective, x, "T"), config,
                           lambda z: 0.0)
        except SolverError as exc:
            exc.trace = _mapped_back(objective, exc.trace, error_fn)
            raise
        trace = _mapped_back(objective, trace, error_fn)
    return EigenResult(trace.values[-1], trace.points[-1], trace)


def _mapped_back(objective, trace, error_fn):
    """``trace`` with its points ``P z`` by one ormqr, values and errors formed
    on those, and the loop's gradient norms and steps."""
    out = IterationTrace(converged=trace.converged)
    points = _reflect(objective, np.array(trace.points).T, "N").T if trace.points else []
    for p, gn, step in zip(points, trace.grad_norms, trace.steps):
        out.append(p, objective.report_value(p), gn, error_fn(p), step)
    return out


def newton_rayleigh(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Tangent-space Newton iteration for an eigenpair of symmetric ``Q``:
    :func:`~riemopt.solvers.newton` on the Rayleigh quotient of ``T`` for
    ``Q = P T P^T``, O(n) per step, as :func:`_on_quotient` says.

    Each step solves ``y = (Q - rho I)^{-1} x`` and follows the great
    circle along ``H = -x + y / (x^T y)`` to ``exp_x(H)``; the trace records
    the geodesic parameter 1.0.  A degenerate pivot ``x^T y`` takes a
    gradient step under ``config.line_search`` instead.  A bad ``Q``
    raises ValueError, a zero or non-finite start
    :class:`~riemopt.errors.NotUnitDirection`.
    """
    return _on_quotient(newton, Q, x0, config, error_fn, reduce=True)


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
    reads one below 1.5e-8 as 0).  It runs on ``T`` and bad input raises as in
    :func:`newton_rayleigh`."""
    return _on_quotient(partial(solvers._newton, step=_rqi_step), Q, x0, config, error_fn, reduce=True)


def cg_extreme_eigen(Q, x0, config=None, which="max", error_fn=None) -> EigenResult:
    """Conjugate-gradient ascent (``which='max'``) or descent
    (``which='min'``) of the Rayleigh quotient, with its closed-form
    geodesic line search whatever ``config.line_search`` says.  The
    direction resets as :func:`~riemopt.solvers.conjugate_gradient` says:
    every ``dim S^{n-1} = n - 1`` steps unless ``config.reset_period`` is set.
    """
    config = replace(config or SolverConfig(), line_search="exact")
    return _on_quotient(conjugate_gradient, Q, x0, config, error_fn, which)
