"""Symmetric eigenpair drivers built on sphere geometry: the generic Newton
iteration and geodesic conjugate gradient run on the Rayleigh quotient,
and the classical quotient iteration (solve and renormalize).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import IterationTrace
from .solvers import SolverConfig, _gradient, _stop_tol, conjugate_gradient, newton
from .sphere import RayleighObjective, _rescaled, normalized_start, sphere_distance
# looked up here by name, so that it can be wrapped; the objective checks Q
from .sphere import _shift_solve


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
    ``|Qx - rho x|``.  It stops by the solvers' rule with ``grad_tol`` read
    relative to ``|Q|_F``: converged once the gradient ``2(Qx - rho x)``
    drops below ``max(2 grad_tol |Q|_F, gradient_floor)``."""
    objective = RayleighObjective(Q, which)
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(objective.Q_fro, np.finfo(float).tiny)
    config = replace(config, grad_tol=2.0 * config.grad_tol * scale)
    trace = solver(objective, normalized_start(x0), config,
                   error_fn=error_fn or objective.residual_norm)
    return EigenResult(trace.values[-1], trace.points[-1], trace)


def newton_rayleigh(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Tangent-space Newton iteration for an eigenpair of symmetric ``Q``:
    :func:`~riemopt.solvers.newton` on the Rayleigh quotient.

    Each step solves ``y = (Q - rho I)^{-1} x`` and follows the great
    circle along ``H = -x + y / (x^T y)`` to ``exp_x(H)``; the trace records
    the geodesic parameter 1.0.  A degenerate pivot ``x^T y`` takes a
    gradient step under ``config.line_search`` instead.  A bad ``Q``
    raises ValueError, a zero or non-finite start
    :class:`~riemopt.errors.NotUnitDirection`.
    """
    return _on_quotient(newton, Q, x0, config, error_fn)


def _rqi(objective, x, config, error_fn):
    trace = IterationTrace()
    tol = _stop_tol(objective, config)
    for i in range(config.max_iter + 1):
        _, gn = _gradient(objective, x, trace)
        rho = objective.report_value(x)
        trace.append(x, rho, gn, error_fn(x))
        if gn < tol or i == config.max_iter:
            break
        y, ny = _rescaled(_shift_solve(objective.Q, rho, x))
        x_next = y / ny
        if float(x_next @ x) < 0.0:
            x_next = -x_next
        trace.record_step(sphere_distance(x, x_next))
        x = x_next
    trace.converged = bool(gn < tol)
    return trace


def rqi(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Rayleigh quotient iteration: ``x <- y / |y|`` for ``y = (Q - rho I)^{-1} x``
    and ``rho = x^T (Qx)``, signed so successive iterates keep a positive inner
    product; the trace records each step's angle.  Bad input raises as in
    :func:`newton_rayleigh`."""
    return _on_quotient(_rqi, Q, x0, config, error_fn)


def cg_extreme_eigen(Q, x0, config=None, which="max", error_fn=None) -> EigenResult:
    """Conjugate-gradient ascent (``which='max'``) or descent
    (``which='min'``) of the Rayleigh quotient, with its closed-form
    geodesic line search whatever ``config.line_search`` says.  The
    direction resets every n-th step (n the matrix size, unless
    ``config.reset_period`` is set).
    """
    def exact_cg(objective, x, config, error_fn):
        config = replace(config, line_search="exact",
                         reset_period=config.reset_period or objective.manifold.n)
        return conjugate_gradient(objective, x, config, error_fn=error_fn)

    return _on_quotient(exact_cg, Q, x0, config, error_fn, which)
