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
from .errors import SolverError
from .solvers import SolverConfig, conjugate_gradient, newton
# _shift_solve is looked up here by name, so that it can be wrapped
from .sphere import (RayleighObjective, _ReducedRayleigh, _reflect, _rescaled, _shift_solve,
                     normalized_start, sphere_distance)


@dataclass
class EigenResult:
    """Eigenpair estimate; ``converged`` and ``iterations`` read the loop's
    ``trace``, stopped as :func:`_on_quotient` says."""
    eigenvalue: float
    eigenvector: np.ndarray
    trace: solvers.IterationTrace

    @property
    def converged(self) -> bool:
        return self.trace.converged

    @property
    def iterations(self) -> int:
        return self.trace.iterations


def _on_quotient(solver, Q, x0, config, error_fn, which="max") -> EigenResult:
    """``solver`` on the Rayleigh quotient from ``x = x0 / |x0|``, default error
    ``|Qx - rho x|``, converged once the gradient ``2(Qx - rho x)`` drops below
    ``max(2 grad_tol |Q|_F, gradient_floor)``.  It runs on ``T`` for
    ``Q = P T P^T`` from ``P^T x``, O(n) per step, ``P = I`` for a tridiagonal ``Q``.  A loop
    point ``z`` maps back to ``P z`` once, by one single-column ormqr (a copy when ``P = I``),
    the start to ``x`` itself.  A caller's ``error_fn`` sees each point mapped back, once per
    row as the loop makes it; every exit, a :class:`~riemopt.errors.SolverError`'s too, maps
    the trace's two points back and sets its default last error to the dense one."""
    objective = RayleighObjective(Q, which)
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(objective.Q_fro, np.finfo(float).tiny)
    config = replace(config, grad_tol=2.0 * config.grad_tol * scale)
    x = normalized_start(x0)
    reduced, z0 = _ReducedRayleigh(objective), _reflect(objective, x, "T")
    last = (None, None)  # the last loop point mapped back, and its image

    def back(z):  # points are told by identity, as MatrixObjective._at tells them
        nonlocal last
        if z is z0:
            return x
        if z is not last[0]:
            last = (z, _reflect(objective, z, "N"))
        return last[1]

    def mapped_back(trace):
        trace.points[:] = [back(z) for z in trace.points]
        if error_fn is None and trace.errors:
            trace.errors[-1] = objective.residual_norm(trace.points[-1])
        return trace

    loop_error = reduced.residual_norm if error_fn is None else lambda z: error_fn(back(z))
    try:
        trace = mapped_back(solver(reduced, z0, config, error_fn=loop_error))
    except SolverError as exc:
        mapped_back(exc.trace)
        raise
    return EigenResult(trace.values[-1], trace.points[-1], trace)


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
    return x_next, sphere_distance(x, x_next)


def rqi(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Rayleigh quotient iteration, the step map ``x <- y / |y|`` on the loop of
    :func:`~riemopt.solvers.newton`, for ``y = (Q - rho I)^{-1} x`` and ``rho = x^T (Qx)``,
    signed so successive iterates keep a positive inner product; the trace records
    each step's angle by :func:`~riemopt.sphere.sphere_distance`, an arctan2 (arccos
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
