"""Symmetric eigenpair drivers built on sphere geometry.

Three iterations for one extreme or targeted eigenpair of a symmetric
matrix: the tangent-space Newton update (solve, project, roll back onto the
sphere), the classical quotient iteration (solve and renormalize), which
share one driver loop, and the generic geodesic conjugate gradient run on
the quotient with its closed-form line search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import IterationTrace, check_symmetric
from .solvers import SolverConfig, conjugate_gradient
from .sphere import (
    RayleighObjective,
    newton_tangent,
    normalized_start,
    project_tangent,
    sphere_distance,
    sphere_exp,
)
# the shift solve is looked up here by name, so that it can be wrapped
from .sphere import shift_solve as _shift_solve


@dataclass
class EigenResult:
    """Eigenpair estimate; ``converged`` is the loop's ``trace.converged``:
    the residual ``|Qx - rho x|`` fell below ``grad_tol * |Q|_F``, or the
    shift became singular to working precision."""
    eigenvalue: float
    eigenvector: np.ndarray
    trace: IterationTrace
    converged: bool
    iterations: int


def _residual(Q, x):
    w = Q @ x
    rho = float(x @ w)
    r = project_tangent(x, w - rho * x)
    return rho, r


def _residual_norm(Q):
    return lambda p: float(np.linalg.norm(Q @ p - (p @ Q @ p) * p))


def _shift_iteration(Q, x0, config, error_fn, step) -> EigenResult:
    """Driver loop shared by :func:`newton_rayleigh` and :func:`rqi`.

    Each iteration solves ``y = (Q - rho I)^{-1} x`` and hands ``(x, y)``
    to ``step``, which returns ``(x_next, length)``, or ``(None,
    converged)`` to stop without a step.  A flagged (singular) shift takes
    its step and then stops as converged.  ``Q`` must be finite and exactly
    symmetric (ValueError), and ``x0`` finite and nonzero
    (:class:`~riemopt.errors.NotUnitDirection`).
    """
    config = config or SolverConfig()
    Q = check_symmetric(Q)
    x = normalized_start(x0)
    scale = np.linalg.norm(Q)
    error_fn = error_fn or _residual_norm(Q)

    trace = IterationTrace()
    rho, r = _residual(Q, x)
    trace.append(x, rho, 2.0 * np.linalg.norm(r), error_fn(x))
    for _ in range(config.max_iter):
        if np.linalg.norm(r) <= config.grad_tol * scale:
            trace.converged = True
            break
        y, flagged = _shift_solve(Q, rho, x)
        x_next, length = step(x, y)
        if x_next is None:
            trace.converged = length
            break
        trace.record_step(length)
        x = x_next
        rho, r = _residual(Q, x)
        trace.append(x, rho, 2.0 * np.linalg.norm(r), error_fn(x))
        if flagged:
            trace.converged = True
            break
    return EigenResult(rho, x, trace, trace.converged, trace.iterations)


def _newton_update(x, y):
    H = newton_tangent(x, y)
    if H is None:
        return None, False  # degenerate pivot: no tangent step at this iterate
    theta = float(np.linalg.norm(H))
    if theta == 0.0:
        return None, True  # x is already an eigenvector
    return sphere_exp(x, H), theta


def _rqi_update(x, y):
    x_next = y / np.linalg.norm(y)
    if float(x_next @ x) < 0.0:
        x_next = -x_next
    return x_next, sphere_distance(x, x_next)


def newton_rayleigh(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Tangent-space Newton iteration for an eigenpair of symmetric ``Q``.

    Each step solves ``y = (Q - rho I)^{-1} x``, forms the tangent
    ``H = -x + y / (x^T y)``, and follows the great circle
    ``x cos|H| + (H/|H|) sin|H|``.  A singular shift is success: ``rho`` is
    an eigenvalue to working precision.  A degenerate pivot ``x^T y`` stops
    the iteration unconverged, without a step.
    """
    return _shift_iteration(Q, x0, config, error_fn, _newton_update)


def rqi(Q, x0, config=None, error_fn=None) -> EigenResult:
    """Rayleigh quotient iteration: ``x <- y / |y|`` for
    ``y = (Q - rho I)^{-1} x``, with the sign fixed so successive iterates
    keep a positive inner product."""
    return _shift_iteration(Q, x0, config, error_fn, _rqi_update)


def cg_extreme_eigen(Q, x0, config=None, which="max", error_fn=None) -> EigenResult:
    """Conjugate-gradient ascent (``which='max'``) or descent
    (``which='min'``) of the Rayleigh quotient.

    Runs :func:`~riemopt.solvers.conjugate_gradient` on
    :class:`~riemopt.sphere.RayleighObjective` with its closed-form
    geodesic line search.  The direction resets every n-th step (n the
    matrix size, overridable through ``config.reset_period``).  The
    solver's gradient is ``2(Qx - rho x)``, so the residual tolerance
    ``grad_tol * |Q|_F`` becomes ``2 grad_tol |Q|_F`` on the gradient.
    A zero or non-finite start raises
    :class:`~riemopt.errors.NotUnitDirection`.
    """
    objective = RayleighObjective(Q, which)
    Q = objective.Q
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(float(np.linalg.norm(Q)), np.finfo(float).tiny)
    config = replace(config, line_search="exact",
                     reset_period=config.reset_period or objective.manifold.n,
                     grad_tol=2.0 * config.grad_tol * scale)
    trace = conjugate_gradient(objective, normalized_start(x0), config,
                               error_fn=error_fn or _residual_norm(Q))
    return EigenResult(trace.values[-1], trace.points[-1], trace, trace.converged, trace.iterations)
