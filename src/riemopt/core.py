"""Manifold contract, iteration traces, and the convergence-order estimator.

Points and tangent vectors are plain numpy arrays whose layout is fixed by
each concrete manifold (unit vectors on the sphere, rotation matrices with
skew-symmetric algebra coordinates on the rotation group).  Solvers treat
them as opaque values and only combine tangent vectors at a common base
point, where they form a vector space.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
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


@functools.cache
def _scipy(module):
    """The compiled kernels of ``scipy.linalg.<module>`` (``"lapack"`` or
    ``"_matfuncs_expm"``), loaded on first use: the extension file alone,
    not ``scipy.linalg``, which takes ten times as long and 17 MB more.  Kept
    in ``sys.modules``, it is the one a later ``import scipy.linalg`` uses.
    This leans on scipy's private file layout (checked under scipy 1.17.1,
    numpy 2.4.6, Python 3.11.7); any failure imports the module instead."""
    name = "scipy.linalg." + {"lapack": "_flapack"}.get(module, module)
    try:
        import scipy  # its distributor init finds the BLAS the kernels link
        if name not in sys.modules:
            stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
            path = next(stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                        if os.path.isfile(stem + suffix))
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            kernels = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(kernels)
            sys.modules.setdefault(name, kernels)
        return sys.modules[name]
    except Exception:  # the supported import gives the same functions
        return importlib.import_module(f"scipy.linalg.{module}")


class Manifold(ABC):
    """Geodesic structure shared by every concrete manifold.

    ``exp`` and ``transport`` act along geodesics only, which is the single
    case the solvers require; transport along arbitrary curves is not part
    of the contract.  Points and tangents are treated as immutable.
    """

    shape: tuple | None = None  #: the array shape of every point, if fixed

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
        self.Q = Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        with np.errstate(over="ignore"):  # an overflow raises below
            self.Q_fro = _fro(Q)
        # |Q|_F is finite exactly when every entry is and no square overflows,
        # so only an infinite or NaN norm needs the entrywise pass
        if not math.isfinite(self.Q_fro) and not np.all(np.isfinite(Q)):
            raise ValueError("Q must be finite")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric as stored")
        if math.isinf(self.Q_fro):
            raise ValueError("|Q|_F overflows to inf; scale Q down")
        self.manifold = manifold(Q.shape[0])
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

    Row ``i`` stores the reported objective value, the gradient norm, the
    error metric, and the step taken *from* its iterate (0.0 on the final
    row).  Of the iterates, ``points`` keeps the first and the latest
    (``[start, last]``; one point for a one-row trace), so a long run takes
    flat memory.  The solvers call their ``error_fn`` once per row, in row
    order, on that row's iterate: a caller that wants every iterate records
    it there.  ``converged`` is set by the loop that produced the trace, when
    it stops; a trace handed out with a solver error keeps ``False``.
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
        self.points[min(len(self.values), 1):] = [point]  # keeps [start, latest]
        self.values.append(float(value))
        self.grad_norms.append(float(grad_norm))
        self.errors.append(error)
        self.steps.append(float(step))

    def record_step(self, step):
        """Set the step size taken from the most recent iterate."""
        self.steps[-1] = float(step)

    def __len__(self):
        return len(self.values)

    @property
    def iterations(self) -> int:
        return max(len(self.values) - 1, 0)


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
        stop = len(e)
        while stop > 0 and e[stop - 1] <= STAGNATION_FLOOR:
            stop -= 1
        window = (0, stop or len(e))  # kept whole when all at the floor, as checked below
    start, stop = int(window[0]), int(window[1])
    if lag < 1 or not 0 <= start < stop <= len(e):
        raise OrderFitError(f"lag {lag!r} or window {window!r} out of range for {len(e)} entries")
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


def longest_decreasing_run(errors):
    """Largest contiguous window of strictly decreasing entries above
    :data:`STAGNATION_FLOOR`.

    Returns a ``(start, stop)`` pair suitable for :func:`estimate_order`;
    the window may still be too short to fit.
    """
    e = np.asarray(errors, dtype=float)
    best = (0, 0)
    start = 0
    for i in range(len(e)):
        usable = e[i] > STAGNATION_FLOOR and (i == start or e[i] < e[i - 1])
        if not usable:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = i if e[i] > STAGNATION_FLOOR else i + 1
    if len(e) - start > best[1] - best[0]:
        best = (start, len(e))
    return best
