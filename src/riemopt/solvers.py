"""Geodesic steepest descent, Newton iteration, and conjugate gradient.

All three solvers minimize a :class:`~riemopt.core.GeodesicObjective` over
its manifold.  Maximization problems are expected to negate themselves (the
objectives in :mod:`riemopt.sphere` and :mod:`riemopt.rotation` do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GeodesicObjective, IterationTrace
from .errors import (
    DegenerateCommutator,
    DegeneratePivot,
    Diverged,
    IndefiniteOperator,
    LineSearchFailed,
    MaxEvaluations,
    NoDecrease,
    NonFinite,
    NotAscentDirection,
    ZeroTangent,
)

_INV_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
#: Golden search: bracket growth factor, first trial step when the problem
#: has no step estimate, budget of objective evaluations, and the relative
#: bracket width at which the section stops.
GOLDEN_GROWTH = 2.0
INITIAL_STEP = 1.0
MAX_EVALUATIONS = 200
GOLDEN_TOL = 1e-10


@dataclass
class SolverConfig:
    """Shared solver knobs.

    ``grad_tol`` is an absolute gradient-norm tolerance: a loop stops as
    converged once the gradient norm drops below
    ``max(grad_tol, objective.gradient_floor)``, so an objective that
    states a round-off floor above ``grad_tol`` stops there.
    ``line_search`` selects 'exact' (problem closed form), 'golden'
    (bracketing golden section), or 'estimate' (problem-supplied step
    bound).  ``reset_period`` defaults to the intrinsic manifold dimension
    when left as None.
    """

    grad_tol: float = 1e-12
    max_iter: int = 1000
    line_search: str = "golden"
    reset_period: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("gradient tolerance must be positive and finite")
        if self.max_iter < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.reset_period is not None and self.reset_period < 1:
            raise ValueError("reset period must be >= 1")
        if self.line_search not in ("exact", "golden", "estimate"):
            raise ValueError(f"unknown line search kind {self.line_search!r}")


@dataclass(frozen=True)
class LineSearchResult:
    """Accepted step, objective evaluations spent, and the accepted point
    ``exp(p, H, step)``."""
    step: float
    evaluations: int
    point: object


def _initial_scale(objective, p, H):
    try:
        return objective.step_estimate(p, H)
    except (NotImplementedError, NotAscentDirection, DegenerateCommutator):
        return INITIAL_STEP


def line_minimize_geodesic(objective: GeodesicObjective, p, H, config=None) -> LineSearchResult:
    """Locate a local minimizer of ``t -> value(exp(p, t H))`` on [0, inf).

    With 'exact' or 'estimate' kinds the step comes straight from the
    problem; 'golden' brackets by repeated doubling from an initial scale
    and refines by golden section to the relative width ``GOLDEN_TOL``.
    """
    config = config or SolverConfig()
    M = objective.manifold
    if M.norm(p, H) == 0.0:
        raise ZeroTangent("line search direction is zero")

    if config.line_search != "golden":
        exact = config.line_search == "exact"
        try:
            t = (objective.exact_line_step if exact else objective.step_estimate)(p, H)
        except NotImplementedError:
            what = "closed-form line step" if exact else "step estimate"
            raise LineSearchFailed(f"problem provides no {what}; use 'golden'") from None
        return LineSearchResult(t, 1, M.exp(p, H, t))

    evals = 0

    def fun(t):
        nonlocal evals
        evals += 1
        q = M.exp(p, H, t)
        return objective.value(q), q

    f0 = objective.value(p)
    t1 = _initial_scale(objective, p, H)

    f1, q1 = fun(t1)
    if f1 < f0:
        a = 0.0
        b, fb, qb = t1, f1, q1
        c = GOLDEN_GROWTH * t1
        fc, qc = fun(c)
        while fc < fb:
            if evals >= MAX_EVALUATIONS:
                raise MaxEvaluations("bracketing exhausted the evaluation budget")
            a = b
            b, fb, qb = c, fc, qc
            c = GOLDEN_GROWTH * c
            fc, qc = fun(c)
    else:
        # shrink toward zero until the function decreases at all
        while f1 >= f0:
            if evals >= MAX_EVALUATIONS or t1 < 1e-300:
                raise NoDecrease("no sampled step decreased the objective")
            t1 /= GOLDEN_GROWTH
            f1, q1 = fun(t1)
        a, b, c = 0.0, t1, GOLDEN_GROWTH * t1
        fb, qb = f1, q1

    # golden section on [a, c]
    x1 = c - _INV_GOLD * (c - a)
    x2 = a + _INV_GOLD * (c - a)
    (fx1, q1), (fx2, q2) = fun(x1), fun(x2)
    while (c - a) > GOLDEN_TOL * max(abs(c), 1e-30):
        if evals >= MAX_EVALUATIONS:
            raise MaxEvaluations("golden section exhausted the evaluation budget")
        if fx1 < fx2:
            c, x2, fx2, q2 = x2, x1, fx1, q1
            x1 = c - _INV_GOLD * (c - a)
            fx1, q1 = fun(x1)
        else:
            a, x1, fx1, q1 = x1, x2, fx2, q2
            x2 = a + _INV_GOLD * (c - a)
            fx2, q2 = fun(x2)
    if fx1 < fx2:
        t, ft, q = x1, fx1, q1
    else:
        t, ft, q = x2, fx2, q2
    if fb < ft:
        t, q = b, qb
    return LineSearchResult(float(t), evals, q)


def _stop_tol(objective, config):
    """Gradient norm below which a loop stops as converged."""
    return max(config.grad_tol, objective.gradient_floor)


def _gradient(objective, p, trace):
    """Gradient at ``p`` and its norm; :class:`NonFinite`, carrying
    ``trace``, when the norm is NaN or infinite."""
    g = objective.gradient(p)
    gn = objective.manifold.norm(p, g)
    if not math.isfinite(gn):
        raise NonFinite(f"gradient norm {gn!r} is not finite", trace=trace)
    return g, gn


def _line_search(objective, p, H, config, trace):
    """:func:`line_minimize_geodesic` along ``H``; any failure of the search
    raises :class:`LineSearchFailed` carrying ``trace``."""
    try:
        return line_minimize_geodesic(objective, p, H, config)
    except (NoDecrease, MaxEvaluations, NotAscentDirection, DegenerateCommutator,
            LineSearchFailed) as exc:
        raise LineSearchFailed(str(exc), trace=trace) from exc


def _start_trace(objective, p, error_fn):
    """Trace holding the start; a NaN start raises :class:`NonFinite`
    before the manifold checks the point."""
    trace = IterationTrace()
    g, gn = _gradient(objective, p, trace)
    objective.manifold.check_point(p)
    trace.append(p, objective.report_value(p), gn, error_fn(p))
    return trace, g, gn


def _descend(objective, p, config, error_fn, reset_period):
    """Conjugate gradient resetting to the negative gradient every
    ``reset_period`` steps (1 is steepest descent); the transports and
    ``<G, H>`` are formed only on steps that build a conjugate direction."""
    error_fn = error_fn or objective.error_metric
    M = objective.manifold
    tol = _stop_tol(objective, config)
    trace, g, gn = _start_trace(objective, p, error_fn)
    G = H = -g
    for i in range(config.max_iter):
        if gn < tol:
            break
        try:
            ls = _line_search(objective, p, H, config, trace)
        except LineSearchFailed:
            if H is G:
                raise
            H = G  # drop conjugacy, retry along the gradient
            ls = _line_search(objective, p, H, config, trace)
        lam, p_next = ls.step, ls.point
        trace.record_step(lam)
        g, gn = _gradient(objective, p_next, trace)
        G_next = H_next = -g
        if i % reset_period != reset_period - 1:
            denom = M.inner(p, G, H)
            if denom != 0.0:
                tau_G = M.transport(p, H, lam, G)
                gamma = M.inner(p_next, G_next - tau_G, G_next) / denom
                H_next = G_next + gamma * M.transport(p, H, lam, H)
        p, G, H = p_next, G_next, H_next
        trace.append(p, objective.report_value(p), gn, error_fn(p))
    trace.converged = gn < tol
    return trace


def steepest_descent(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Line-minimize along the negative gradient until the gradient norm
    drops below tolerance or the iteration budget runs out: conjugate
    gradient with a reset at every step."""
    return _descend(objective, p0, config or SolverConfig(), error_fn, reset_period=1)


def newton(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Unit-step Newton iteration ``p <- exp_p(H)`` with
    ``hessian(H) = -gradient``.

    There is no damping or line search.  On an indefinite or singular
    second differential, a degenerate pivot or a zero direction, it takes one
    line-minimized gradient step instead.  It stops as converged once the
    gradient norm drops below ``max(grad_tol, objective.gradient_floor)``.
    """
    config = config or SolverConfig()
    error_fn = error_fn or objective.error_metric
    tol = _stop_tol(objective, config)
    M = objective.manifold
    p = p0
    trace, g, gn = _start_trace(objective, p, error_fn)
    grow_count = 0
    for _ in range(config.max_iter):
        if gn < tol:
            break
        try:
            H = objective.newton_direction(p)
        except (IndefiniteOperator, DegeneratePivot, np.linalg.LinAlgError):
            H = None
        if H is None or M.norm(p, H) == 0.0:
            ls = _line_search(objective, p, -g, config, trace)
            step, p = ls.step, ls.point
        else:
            step, p = 1.0, M.exp(p, H, 1.0)
        trace.record_step(step)
        g, gn_new = _gradient(objective, p, trace)
        grow_count = grow_count + 1 if gn_new > gn else 0
        gn = gn_new
        trace.append(p, objective.report_value(p), gn, error_fn(p))
        if grow_count >= 5:
            raise Diverged("gradient norm grew for 5 consecutive steps", trace=trace)
    trace.converged = gn < tol
    return trace


def conjugate_gradient(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Geodesic conjugate gradient.

    The new direction is ``H_{i+1} = G_{i+1} + gamma_i tau(H_i)`` where both
    the previous gradient and direction ride the step geodesic by parallel
    translation and ``gamma_i = <G_{i+1} - tau(G_i), G_{i+1}> / <G_i, H_i>``.
    The direction is reset to the plain gradient every ``reset_period``
    steps (default: manifold dimension), and whenever the gamma denominator
    vanishes or the mixed direction fails to decrease the objective.
    """
    config = config or SolverConfig()
    return _descend(objective, p0, config, error_fn, config.reset_period or objective.manifold.dim)
