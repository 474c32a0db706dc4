"""Manifold contract, iteration traces, and the convergence-order estimator.

Points and tangent vectors are plain numpy arrays whose layout is fixed by
each concrete manifold (unit vectors on the sphere, rotation matrices with
skew-symmetric algebra coordinates on the rotation group).  Solvers treat
them as opaque values and only combine tangent vectors at a common base
point, where they form a vector space.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderFitError

#: Entries at or below this value are treated as round-off plateau and are
#: excluded from order fits.
STAGNATION_FLOOR = 100.0 * np.finfo(float).eps


def _fro(A):
    """Frobenius norm of a real array: the arithmetic of ``np.linalg.norm``
    without its dispatch, so the result is bitwise the same."""
    x = A.ravel(order="K")
    return math.sqrt(x.dot(x))


class Manifold(ABC):
    """Geodesic structure shared by every concrete manifold.

    ``exp`` and ``transport`` act along geodesics only, which is the single
    case the solvers require; transport along arbitrary curves is not part
    of the contract.  Points and tangents are treated as immutable.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Intrinsic manifold dimension."""

    @abstractmethod
    def exp(self, p, v, t=1.0):
        """Point reached at parameter ``t`` along the geodesic leaving ``p``
        with velocity ``v`` (so ``exp(p, v, 1)`` is the exponential map)."""

    @abstractmethod
    def transport(self, p, v, t, w):
        """Parallel translation of ``w`` from ``p`` to ``exp(p, v, t)``
        along that geodesic."""

    def velocity(self, p, v, t):
        """Velocity at ``exp(p, v, t)``: ``v`` translated along the geodesic."""
        return self.transport(p, v, t, v)

    @abstractmethod
    def inner(self, p, u, v) -> float:
        """Riemannian inner product of tangent vectors at ``p``."""

    @abstractmethod
    def check_point(self, p):
        """Raise a GeometryError unless ``p`` is on the manifold to round-off."""

    def norm(self, p, v) -> float:
        return math.sqrt(self.inner(p, v, v))


class GeodesicObjective(ABC):
    """A smooth function to be minimized over a manifold.

    Maximization problems negate their natural objective internally and
    expose the natural value through :meth:`report_value`; all solvers
    minimize :meth:`value`.

    ``gradient_floor`` is the gradient norm that round-off in the
    objective's data allows at a critical point.  The solvers stop as
    converged once the gradient norm drops below
    ``max(config.grad_tol, gradient_floor)``.  It is 0.0 unless the
    objective states one.

    ``manifold`` is an attribute: the :class:`Manifold` the objective is
    defined on.

    Points are immutable: an objective may reuse what it formed at the
    last point it saw, keyed on identity; do not change one in place.
    """

    manifold: Manifold
    gradient_floor: float = 0.0

    @abstractmethod
    def value(self, p) -> float:
        ...

    @abstractmethod
    def gradient(self, p):
        ...

    def report_value(self, p) -> float:
        """Value in the problem's natural sign convention (for traces)."""
        return self.value(p)

    def hessian_apply(self, p, u):
        """Apply the second-covariant-differential operator of :meth:`value`."""
        raise NotImplementedError

    def newton_direction(self, p):
        """Tangent ``H`` with ``hessian_apply(p, H) = -gradient(p)``."""
        raise NotImplementedError

    def exact_line_step(self, p, h) -> float:
        """Closed-form minimizer of ``t -> value(exp(p, h, t))``, if known."""
        raise NotImplementedError

    def step_estimate(self, p, h) -> float:
        """Problem-supplied step length guaranteeing decrease, if known."""
        raise NotImplementedError

    def error_metric(self, p) -> float:
        """Distance-to-optimum proxy recorded in traces.

        Defaults to the gradient norm; problems with a known target
        override this.
        """
        g = self.gradient(p)
        return self.manifold.norm(p, g)


def _check_symmetric(Q):
    """``Q`` as floats; ValueError unless square, finite and exactly symmetric."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must be finite")
    if not np.array_equal(Q, Q.T):
        raise ValueError("Q must be exactly symmetric as stored")
    return Q


class MatrixObjective(GeodesicObjective):
    """An objective defined by one finite, exactly symmetric matrix ``Q``
    with a finite ``Q_fro = |Q|_F`` (ValueError otherwise) on the manifold
    ``manifold(n)`` for ``Q`` of size n.

    :meth:`_at` keeps ``form(Q, p)`` for the last point ``p`` it saw,
    keyed on identity, for the one ``form`` an objective uses.  The entry
    is one tuple that holds its key, read once and replaced whole, so
    threads that share an objective never pair a point with the value
    formed at another.
    """

    def __init__(self, Q, manifold):
        self.Q = _check_symmetric(Q)
        with np.errstate(over="ignore"):  # an overflow raises below
            self.Q_fro = _fro(self.Q)
        if math.isinf(self.Q_fro):
            raise ValueError("|Q|_F overflows to inf; scale Q down")
        self.manifold = manifold(self.Q.shape[0])
        self._last = (None, None)

    def _at(self, p, form):
        key, w = self._last
        if key is not p:
            w = form(self.Q, p)
            self._last = (p, w)
        return w


@dataclass
class IterationTrace:
    """Per-iteration record of a solver run.

    Row ``i`` stores the iterate ``points[i]``, the reported objective
    value, the gradient norm, the error metric, and the step taken *from*
    this iterate (0.0 on the final row).  ``converged`` is set by the loop
    that produced the trace, when it stops; a trace handed out with a
    solver error keeps ``False``.
    """

    points: list = field(default_factory=list)
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    converged: bool = False

    def append(self, point, value, grad_norm, error, step=0.0):
        error = float(error)
        if error < 0.0:
            raise ValueError("error metric must be nonnegative")
        self.points.append(point)
        self.values.append(float(value))
        self.grad_norms.append(float(grad_norm))
        self.errors.append(error)
        self.steps.append(float(step))

    def record_step(self, step):
        """Set the step size taken from the most recent iterate."""
        self.steps[-1] = float(step)

    def __len__(self):
        return len(self.points)

    @property
    def iterations(self) -> int:
        return max(len(self.points) - 1, 0)


@dataclass(frozen=True)
class ConvergenceReport:
    """Least-squares fit of ``e_{i+lag} = theta * e_i**order``."""

    order: float
    rate: float
    residual: float
    window: tuple
    lag: int = 1


def estimate_order(errors, window=None, lag=1) -> ConvergenceReport:
    """Fit a convergence order to a positive, strictly decreasing sequence.

    Ordinary least squares on ``log e_{i+lag}`` against ``log e_i`` over the
    given half-open index window.  With ``window=None`` the whole sequence
    is used after trimming any trailing entries at or below the stagnation
    floor (the round-off plateau would otherwise corrupt the fit).
    """
    e = np.asarray(errors, dtype=float)
    if window is None:
        if len(e) > 0 and np.all(e <= STAGNATION_FLOOR):
            raise OrderFitError("all entries at or below the stagnation floor")
        stop = len(e)
        while stop > 0 and e[stop - 1] <= STAGNATION_FLOOR:
            stop -= 1
        window = (0, stop)
    start, stop = int(window[0]), int(window[1])
    seq = e[start:stop]

    if not np.all(np.isfinite(seq)):
        raise OrderFitError("entries must be finite")
    if len(seq) < max(3, lag + 2):
        raise OrderFitError(f"need at least {max(3, lag + 2)} entries, got {len(seq)}")
    if np.all(seq <= STAGNATION_FLOOR):
        raise OrderFitError("all entries at or below the stagnation floor")
    if np.any(seq <= 0.0) or np.any(seq[lag:] >= seq[:-lag]):
        raise OrderFitError("entries must be positive and strictly decreasing across the fit lag")
    if np.any(seq <= STAGNATION_FLOOR):
        raise OrderFitError("window reaches into the stagnation floor; shrink it")

    x = np.log(seq[:-lag])
    y = np.log(seq[lag:])
    p, logtheta = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (p * x + logtheta)) ** 2)))
    return ConvergenceReport(order=float(p), rate=float(np.exp(logtheta)),
                             residual=resid, window=(start, stop), lag=lag)


def longest_decreasing_run(errors, floor=STAGNATION_FLOOR):
    """Largest contiguous window of strictly decreasing entries above ``floor``.

    Returns a ``(start, stop)`` pair suitable for :func:`estimate_order`;
    the window may still be too short to fit.
    """
    e = np.asarray(errors, dtype=float)
    best = (0, 0)
    start = 0
    for i in range(len(e)):
        usable = e[i] > floor and (i == start or e[i] < e[i - 1])
        if not usable:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = i if e[i] > floor else i + 1
    if len(e) - start > best[1] - best[0]:
        best = (start, len(e))
    return best
