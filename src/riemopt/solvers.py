"""Geodesic steepest descent, Newton iteration, and conjugate gradient.

All three solvers minimize a :class:`~riemopt.core.GeodesicObjective` over
its manifold.  Maximization problems are expected to negate themselves (the
objectives in :mod:`riemopt.sphere` and :mod:`riemopt.rotation` do).
They run one geodesic loop, :func:`_loop`, and differ only in the step map
that picks each step's direction and length.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import GeodesicObjective, IterationTrace
from .errors import Diverged, LineSearchFailed, NonFinite, SolverError, StepDeclined, ZeroTangent

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


def _gradient(objective, p):
    """Gradient at ``p`` and its norm; :class:`NonFinite` when the norm is
    NaN or infinite."""
    g = objective.gradient(p)
    gn = objective.manifold.norm(p, g)
    if not math.isfinite(gn):
        raise NonFinite(f"gradient norm {gn!r} is not finite")
    return g, gn


def _loop(objective, p, config, error_fn, advance, diverge_after):
    """The solvers' one loop: ``p <- advance(p, g)``, a step map returning the
    next point and the step to record, until the gradient norm drops below
    ``max(grad_tol, gradient_floor)`` or the budget runs out.  A start of the
    wrong shape raises ValueError, and a NaN start :class:`NonFinite` before
    the manifold checks the point.  ``diverge_after`` growths in a row of the
    gradient norm (None: no limit) raise :class:`Diverged`.  Every
    :class:`SolverError` leaves carrying the partial trace."""
    M = objective.manifold
    if M.shape not in (None, np.shape(p)):
        raise ValueError(f"start has shape {np.shape(p)}, not {M.shape}")
    error_fn = error_fn or objective.error_metric
    # a Python float, so that ``gn < tol`` is a ``bool``
    tol = float(max(config.grad_tol, objective.gradient_floor))
    trace, grown = IterationTrace(), 0
    try:
        g, gn = _gradient(objective, p)
        M.check_point(p)
        trace.append(p, objective.report_value(p), gn, error_fn(p))
        for _ in range(config.max_iter):
            if gn < tol:
                break
            p, step = advance(p, g)
            trace.record_step(step)
            g, gn_next = _gradient(objective, p)
            grown = grown + 1 if gn_next > gn else 0
            gn = gn_next
            trace.append(p, objective.report_value(p), gn, error_fn(p))
            if grown == diverge_after:
                raise Diverged(f"gradient norm grew for {grown} consecutive steps")
    except SolverError as exc:
        exc.trace = trace
        raise
    trace.converged = gn < tol
    return trace


def _descend(objective, p, config, error_fn, reset_period):
    """Conjugate gradient resetting to the negative gradient every
    ``reset_period`` steps (1 is steepest descent), as a step map on the loop.
    The map keeps the last step's point, negative gradient, direction and
    length, and forms the transports and ``<G, H>`` only when the next step
    takes a conjugate direction."""
    M = objective.manifold
    last, taken = None, 0

    def advance(p, g):
        nonlocal last, taken
        G = H = -g
        if last is not None:
            p_last, G_last, H_last, lam = last
            denom = M.inner(p_last, G_last, H_last)
            if denom != 0.0:
                tau_G = M.transport(p_last, H_last, lam, G_last)
                gamma = M.inner(p, G - tau_G, G) / denom
                H = G + gamma * M.transport(p_last, H_last, lam, H_last)
        try:
            ls = line_minimize_geodesic(objective, p, H, config, gradient=g)
        except LineSearchFailed:
            if H is G:
                raise
            H = G  # drop conjugacy, retry along the gradient
            ls = line_minimize_geodesic(objective, p, H, config, gradient=g)
        taken += 1
        last = (p, G, H, ls.step) if taken % reset_period else None
        return ls.point, ls.step

    return _loop(objective, p, config, error_fn, advance, diverge_after=None)


def steepest_descent(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Line-minimize along the negative gradient until the gradient norm
    drops below tolerance or the iteration budget runs out: conjugate
    gradient with a reset at every step.
    ``error_fn`` sees every iterate, once per row in order; the trace keeps the first and last."""
    return _descend(objective, p0, config or SolverConfig(), error_fn, reset_period=1)


def _newton_step(objective, p):
    """``exp_p(H)`` for the Newton direction ``H``, recorded as 1.0; a zero ``H`` declines."""
    H = objective.newton_direction(p)
    if objective.manifold.norm(p, H) == 0.0:
        raise StepDeclined("the Newton direction is zero")
    return objective.manifold.exp(p, H, 1.0), 1.0


def _newton(objective, p, config, error_fn, step):
    """Newton's step map ``step(objective, p) -> (point, recorded step)`` on the loop.
    A declined step (:class:`StepDeclined`, ``LinAlgError``) gives way to one line-minimized
    gradient step, and 5 growths in a row of the gradient norm raise :class:`Diverged`."""
    def advance(p, g):
        try:
            return step(objective, p)
        except (StepDeclined, np.linalg.LinAlgError):
            ls = line_minimize_geodesic(objective, p, -g, config, gradient=g)
            return ls.point, ls.step

    return _loop(objective, p, config, error_fn, advance, diverge_after=5)


def newton(objective: GeodesicObjective, p0, config=None, error_fn=None) -> IterationTrace:
    """Unit-step Newton iteration ``p <- exp_p(H)`` with
    ``hessian(H) = -gradient``.

    There is no damping or line search.  On an indefinite or singular
    second differential, a degenerate pivot or a zero direction, it takes one
    line-minimized gradient step instead.
    ``error_fn`` sees every iterate, once per row in order; the trace keeps the first and last.
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
    ``error_fn`` sees every iterate, once per row in order; the trace keeps the first and last.
    """
    config = config or SolverConfig()
    return _descend(objective, p0, config, error_fn, config.reset_period or objective.manifold.dim)
