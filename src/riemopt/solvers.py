"""Geodesic steepest descent, Newton iteration, and conjugate gradient.

All three solvers minimize a :class:`~riemopt.core.GeodesicObjective` over
its manifold.  Maximization problems are expected to negate themselves (the
objectives in :mod:`riemopt.sphere` and :mod:`riemopt.rotation` do).
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import GeodesicObjective, IterationTrace
from .errors import Diverged, LineSearchFailed, NonFinite, StepDeclined, ZeroTangent

#: Slope search: bracket growth factor, first trial step when the problem
#: has no step estimate, budget of trial points, and the relative bracket
#: width at which regula falsi stops at the latest.
BRACKET_GROWTH = 2.0
INITIAL_STEP = 1.0
MAX_EVALUATIONS = 200
BRACKET_TOL = 1e-10
#: Rise of ``value``, relative to ``max(1, |value|)``, read as round-off.
VALUE_SLACK = 1e3 * np.finfo(float).eps
#: A slope-search point: step, slope, point, and 1 if it is an upper end.
_Trial = namedtuple("_Trial", "t d point upper")


@dataclass
class SolverConfig:
    """Shared solver knobs.

    ``grad_tol`` is an absolute gradient-norm tolerance: a loop stops as
    converged once the gradient norm drops below
    ``max(grad_tol, objective.gradient_floor)``, so an objective that
    states a round-off floor above ``grad_tol`` stops there.
    ``line_search`` selects 'exact' (problem closed form), 'bracket'
    (bracket and regula falsi on the slope along the geodesic; 'golden'
    is an alias for it), or 'estimate' (problem-supplied step bound).
    ``reset_period`` defaults to the intrinsic manifold dimension when
    left as None.
    """

    grad_tol: float = 1e-12
    max_iter: int = 1000
    line_search: str = "bracket"
    reset_period: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("gradient tolerance must be positive and finite")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"iteration budget must be an integer, got {self.max_iter!r}")
        if self.reset_period is not None and not isinstance(self.reset_period, numbers.Integral):
            raise ValueError(f"reset period must be an integer, got {self.reset_period!r}")
        if self.max_iter < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.reset_period is not None and self.reset_period < 1:
            raise ValueError("reset period must be >= 1")
        if self.line_search == "golden":
            self.line_search = "bracket"
        if self.line_search not in ("exact", "bracket", "estimate"):
            raise ValueError(f"unknown line search kind {self.line_search!r}")


@dataclass(frozen=True)
class LineSearchResult:
    """Accepted step, trial points evaluated, and the accepted point
    ``exp(p, H, step)``."""
    step: float
    evaluations: int
    point: object


def _initial_scale(objective, p, H):
    try:
        return objective.step_estimate(p, H)
    except (NotImplementedError, StepDeclined):
        return INITIAL_STEP


def line_minimize_geodesic(objective: GeodesicObjective, p, H, config=None, *,
                           gradient=None) -> LineSearchResult:
    """Locate a local minimizer of ``t -> value(exp(p, t H))`` on [0, inf).

    With 'exact' or 'estimate' kinds the step comes straight from the
    problem.  'bracket' works on the slope ``d(t) = <gradient(exp(p, t H)),
    velocity(p, H, t)>``, exact to round-off where value differences are
    not.  It needs ``d(0) < -gradient_floor |H|``, doubles from the
    problem's step estimate (else ``INITIAL_STEP``) to an upper end
    (``d >= 0``, or past a hump: still descending, but above ``value(p)``),
    and runs Illinois regula falsi on ``d`` (bisection past a hump) until an
    end's ``|d|`` is at round-off or the relative width is ``BRACKET_TOL``.
    It returns the end with the smaller ``|d|`` if its value has not risen
    above ``value(p)`` beyond round-off.  A trial point (one evaluation)
    costs an ``exp``, a gradient and, while descending, a value.
    ``gradient``, when given, is ``objective.gradient(p)`` already formed.
    A zero ``H`` raises :class:`ZeroTangent`, every other failure (a
    :class:`StepDeclined` chained) :class:`LineSearchFailed`.
    """
    config = config or SolverConfig()
    M = objective.manifold
    if M.norm(p, H) == 0.0:
        raise ZeroTangent("line search direction is zero")

    if config.line_search != "bracket":
        exact = config.line_search == "exact"
        try:
            t = (objective.exact_line_step if exact else objective.step_estimate)(p, H)
        except NotImplementedError:
            what = "closed-form line step" if exact else "step estimate"
            raise LineSearchFailed(f"problem provides no {what}; use 'bracket'") from None
        except StepDeclined as exc:
            raise LineSearchFailed(str(exc)) from exc
        return LineSearchResult(t, 1, M.exp(p, H, t))

    f0 = objective.value(p)
    ceiling = f0 + VALUE_SLACK * max(1.0, abs(f0))
    noise = objective.gradient_floor * M.norm(p, H)  # round-off in a slope
    d0 = M.inner(p, objective.gradient(p) if gradient is None else gradient, H)
    if not d0 < -noise:
        raise LineSearchFailed(f"slope {d0!r} along the direction is not below {-noise!r}")
    evals = 0

    def trial(t):
        nonlocal evals
        if evals >= MAX_EVALUATIONS:
            raise LineSearchFailed("slope search exhausted the evaluation budget")
        evals += 1
        q = M.exp(p, H, t)
        d = M.inner(q, objective.gradient(q), M.velocity(p, H, t))
        if not math.isfinite(d):
            raise LineSearchFailed(f"slope {d!r} at step {t!r} is not finite")
        # a point still descending but above value(p) lies past a hump
        return _Trial(t, d, q, int(d >= 0.0 or not objective.value(q) <= ceiling))

    # a local minimizer below value(p) lies between ends[0], descending, and
    # the upper end ends[1]; w holds their Illinois-weighted slopes
    ends = [_Trial(0.0, d0, p, 0), trial(_initial_scale(objective, p, H))]
    while not ends[1].upper:
        ends = [ends[1], trial(BRACKET_GROWTH * ends[1].t)]
    w, side = [end.d for end in ends], None
    while (min(abs(end.d) for end in ends) > noise
           and ends[1].t - ends[0].t > BRACKET_TOL * ends[1].t):
        a, b = ends[0].t, ends[1].t
        # regula falsi across a sign change of d, bisection across a hump
        end = trial(b - w[1] * (b - a) / (w[1] - w[0]) if w[1] > 0.0 else 0.5 * (a + b))
        if end.upper == side:
            w[1 - side] /= 2.0
        ends[end.upper], w[end.upper], side = end, end.d, end.upper
    best = min(ends, key=lambda end: abs(end.d))
    if not objective.value(best.point) <= ceiling:
        raise LineSearchFailed("the slope search point raised the objective")
    return LineSearchResult(float(best.t), evals, best.point)


def _stop_tol(objective, config):
    """Gradient norm below which every loop, the eigen drivers' included,
    stops as converged; a Python float, so ``gn < tol`` is a ``bool``."""
    return float(max(config.grad_tol, objective.gradient_floor))


def _gradient(objective, p, trace):
    """Gradient at ``p`` and its norm; :class:`NonFinite`, carrying
    ``trace``, when the norm is NaN or infinite."""
    g = objective.gradient(p)
    gn = objective.manifold.norm(p, g)
    if not math.isfinite(gn):
        raise NonFinite(f"gradient norm {gn!r} is not finite", trace=trace)
    return g, gn


def _line_search(objective, p, H, config, trace, g):
    """:func:`line_minimize_geodesic` along ``H`` with the gradient ``g`` at
    ``p``; its :class:`LineSearchFailed` carries ``trace``."""
    try:
        return line_minimize_geodesic(objective, p, H, config, gradient=g)
    except LineSearchFailed as exc:
        exc.trace = trace
        raise


def _start_trace(objective, p, error_fn):
    """Trace holding the start; a start of the wrong shape raises ValueError,
    and a NaN start :class:`NonFinite` before the manifold checks the point."""
    if objective.manifold.shape not in (None, np.shape(p)):
        raise ValueError(f"start has shape {np.shape(p)}, not {objective.manifold.shape}")
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
            ls = _line_search(objective, p, H, config, trace, g)
        except LineSearchFailed:
            if H is G:
                raise
            H = G  # drop conjugacy, retry along the gradient
            ls = _line_search(objective, p, H, config, trace, g)
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


def _newton_step(objective, p):
    """``exp_p(H)`` for the Newton direction ``H``, recorded as 1.0; a zero ``H`` declines."""
    H = objective.newton_direction(p)
    if objective.manifold.norm(p, H) == 0.0:
        raise StepDeclined("the Newton direction is zero")
    return objective.manifold.exp(p, H, 1.0), 1.0


def _newton(objective, p, config, error_fn, step):
    """Newton's loop on the step map ``step(objective, p) -> (point, recorded step)``.
    A declined step (:class:`StepDeclined`, ``LinAlgError``) gives way to one line-minimized
    gradient step, and 5 growths in a row of the gradient norm raise :class:`Diverged`."""
    error_fn = error_fn or objective.error_metric
    tol = _stop_tol(objective, config)
    trace, g, gn = _start_trace(objective, p, error_fn)
    grow_count = 0
    for _ in range(config.max_iter):
        if gn < tol:
            break
        try:
            p, lam = step(objective, p)
        except (StepDeclined, np.linalg.LinAlgError):
            ls = _line_search(objective, p, -g, config, trace, g)
            p, lam = ls.point, ls.step
        trace.record_step(lam)
        g, gn_new = _gradient(objective, p, trace)
        grow_count = grow_count + 1 if gn_new > gn else 0
        gn = gn_new
        trace.append(p, objective.report_value(p), gn, error_fn(p))
        if grow_count >= 5:
            raise Diverged("gradient norm grew for 5 consecutive steps", trace=trace)
    trace.converged = gn < tol
    return trace


def newton(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Unit-step Newton iteration ``p <- exp_p(H)`` with
    ``hessian(H) = -gradient``.

    There is no damping or line search.  On an indefinite or singular
    second differential, a degenerate pivot or a zero direction, it takes one
    line-minimized gradient step instead.
    """
    return _newton(objective, p0, config or SolverConfig(), error_fn, _newton_step)


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
