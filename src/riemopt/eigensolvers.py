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

from .core import IterationTrace
from .solvers import SolverConfig, conjugate_gradient
from .sphere import SHIFT_CONDITION_LIMIT, RayleighObjective, project_tangent, sphere_distance


@dataclass
class EigenResult:
    """Eigenpair estimate; convergence means the residual ``|Qx - rho x|``
    fell below ``grad_tol * |Q|_F``."""
    eigenvalue: float
    eigenvector: np.ndarray
    trace: IterationTrace
    converged: bool
    iterations: int


def _shift_solve(Q, rho, x):
    """Solve ``(Q - rho I) y = x`` and flag a shift singular to working
    precision (condition above 1e14).

    A flagged solve is still usable: it is backward stable and its solution
    is dominated by the target eigenvector, so the drivers take one last
    step from it and then declare convergence (``rho`` is an eigenvalue to
    working precision).  When the shift is exactly singular or the solve
    overflows, the limiting direction is the null singular vector, which is
    the same step at infinite amplification.
    """
    A = Q - rho * np.eye(Q.shape[0])
    _, sv, Vt = np.linalg.svd(A)
    flagged = sv[-1] == 0.0 or sv[0] / sv[-1] > SHIFT_CONDITION_LIMIT
    y = None
    if sv[-1] > 0.0:
        try:
            y = np.linalg.solve(A, x)
        except np.linalg.LinAlgError:
            y = None
        if y is not None and not np.all(np.isfinite(y)):
            y = None
    if y is None:
        y = Vt[-1].copy()
        if float(y @ x) < 0.0:
            y = -y
        flagged = True
    return y, flagged


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
    its step and then stops as converged.
    """
    config = config or SolverConfig()
    Q = np.asarray(Q, dtype=float)
    x = np.asarray(x0, dtype=float)
    x = x / np.linalg.norm(x)
    scale = np.linalg.norm(Q)
    error_fn = error_fn or _residual_norm(Q)

    trace = IterationTrace()
    converged = False
    rho, r = _residual(Q, x)
    trace.append(x, rho, 2.0 * np.linalg.norm(r), error_fn(x))
    for _ in range(config.max_iter):
        if np.linalg.norm(r) <= config.grad_tol * scale:
            converged = True
            break
        y, flagged = _shift_solve(Q, rho, x)
        x_next, length = step(x, y)
        if x_next is None:
            converged = length
            break
        trace.record_step(length)
        x = x_next
        rho, r = _residual(Q, x)
        trace.append(x, rho, 2.0 * np.linalg.norm(r), error_fn(x))
        if flagged:
            converged = True
            break
    return EigenResult(rho, x, trace, converged, trace.iterations)


def _newton_update(x, y):
    pivot = float(x @ y)
    if pivot == 0.0:
        return None, False  # tangent step undefined at this iterate
    alpha = 1.0 / pivot
    H = project_tangent(x, -x + alpha * y)
    theta = float(np.linalg.norm(H))
    if theta == 0.0:
        return None, True  # x is already an eigenvector
    x_next = x * np.cos(theta) + (H / theta) * np.sin(theta)
    return x_next / np.linalg.norm(x_next), theta


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
    an eigenvalue to working precision.
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
    """
    objective = RayleighObjective(Q, which)
    Q = objective.problem.Q
    config = config or SolverConfig()
    # a zero Q still needs a positive tolerance (its every point is critical)
    scale = max(float(np.linalg.norm(Q)), np.finfo(float).tiny)
    config = replace(config, line_search="exact",
                     reset_period=config.reset_period or objective.problem.n,
                     grad_tol=2.0 * config.grad_tol * scale)
    x = np.asarray(x0, dtype=float)
    trace = conjugate_gradient(objective, x / np.linalg.norm(x), config,
                               error_fn=error_fn or _residual_norm(Q))
    converged = trace.grad_norms[-1] < config.grad_tol
    return EigenResult(trace.values[-1], trace.points[-1], trace, converged, trace.iterations)
