"""The imbedded unit sphere and the Rayleigh quotient problem.

Points are unit n-vectors, tangents are n-vectors orthogonal to the base
point.  Geodesics are great circles with closed-form exponential map,
parallel translation, and logarithm, so no differential equations are
solved anywhere in this module.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Manifold, MatrixObjective, _fro, _scipy
from .errors import AntipodalPoints, NotTangent, NotUnitDirection, StepDeclined, ZeroTangent

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-12
EPS = np.finfo(float).eps


def check_unit(x):
    x = np.asarray(x, dtype=float)
    if not abs(x @ x - 1.0) <= UNIT_TOL:  # NaN fails too
        raise NotUnitDirection(f"|x^T x - 1| = {abs(x @ x - 1.0):.3e} exceeds {UNIT_TOL:.1e}")
    return x


def check_tangent(x, v):
    v = np.asarray(v, dtype=float)
    bound = TANGENT_TOL * max(_fro(v), 1e-300)
    with np.errstate(invalid="ignore"):  # inf * 0 in an inf point
        xv = abs(x @ v)
    if not xv <= bound < np.inf:  # an inf v gives an inf bound
        raise NotTangent(f"|x^T v| = {xv:.3e} exceeds {bound:.3e}")
    return v


def _rescaled(y):
    """``(y, |y|)``, ``y`` first divided by ``max|y|`` when ``|y|`` over- or
    underflows, so that a finite nonzero ``y`` has a finite positive norm."""
    with np.errstate(over="ignore"):
        ny = _fro(y)
    if ny in (0.0, np.inf) and 0.0 < (s := np.max(np.abs(y), initial=0.0)) < np.inf:
        y = y / s
        ny = _fro(y)
    return y, ny


def normalized_start(x0):
    """``x0 / |x0|``; a zero or non-finite start has no direction."""
    x, nx = _rescaled(np.asarray(x0, dtype=float))
    if not (np.isfinite(nx) and nx > 0.0):
        raise NotUnitDirection(f"start must be finite and nonzero, |x0| = {nx!r}")
    return x / nx


def project_tangent(x, v):
    """Remove the normal component of ``v`` at ``x`` (round-off control)."""
    return v - (x @ v) * x


def sphere_exp(x, h, t=1.0):
    """Great-circle point ``x cos(t|h|) + (h/|h|) sin(t|h|)``.

    ``t`` is scaled by ``|h|`` so that ``sphere_exp(x, h, 1)`` is the
    exponential map of the unnormalized tangent ``h``.  The result is
    renormalized to suppress round-off drift.  A zero ``h`` raises
    :class:`ZeroTangent` (unless ``t`` is 0), one whose norm is not finite
    :class:`NotTangent`.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    nh = _fro(h)
    if not math.isfinite(nh):
        raise NotTangent(f"tangent must be finite, |h| = {nh!r}")
    if nh == 0.0:
        if t == 0.0:
            return x.copy()
        raise ZeroTangent("cannot move along a zero tangent")
    ang = t * nh
    y = x * np.cos(ang) + (h / nh) * np.sin(ang)
    return y / _fro(y)


def sphere_transport(x, h, t, v):
    """Parallel translation of ``v`` along the great circle through ``x``
    with unit direction ``h``, to the point at arc length ``t``."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if not abs(h @ h - 1.0) <= UNIT_TOL:
        raise NotUnitDirection("transport direction must have unit length")
    v = check_tangent(x, v)
    return v - (h @ v) * (x * np.sin(t) + h * (1.0 - np.cos(t)))


def _cosine(x, y):
    """``x^T y``; NotUnitDirection when it is not finite, as for NaN or inf in either point."""
    with np.errstate(invalid="ignore"):  # inf * 0 in an inf point
        c = float(x @ y)
    if not math.isfinite(c):
        raise NotUnitDirection(f"points must be finite, x^T y = {c!r}")
    return c


def sphere_log(x, y):
    """Inverse of the geodesic map: tangent at ``x`` pointing to ``y``.

    Returns ``(v, d)`` with ``|v| = d = arccos(x^T y)`` and
    ``sphere_exp(x, v, 1) = y``.  The angle is formed with ``arctan2`` of
    the perpendicular component, which resolves nearly identical points far
    below the precision of ``arccos``.  Antipodal pairs have no unique
    geodesic.  A point holding NaN or inf raises :class:`NotUnitDirection`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = _cosine(x, y)
    if np.array_equal(x, y):
        return np.zeros_like(x), 0.0
    c = float(np.clip(c, -1.0, 1.0))
    w = project_tangent(x, y - c * x)  # strip the normal round-off component
    nw = _fro(w)
    if nw == 0.0:
        if c < 0.0:
            raise AntipodalPoints("antipodal points admit no unique geodesic")
        return np.zeros_like(x), 0.0
    if c <= -1.0 + 1e-14:
        raise AntipodalPoints("antipodal points admit no unique geodesic")
    d = float(np.arctan2(nw, c))
    return (d / nw) * w, d


def sphere_distance(x, y):
    """Angle between unit ``x`` and ``y``, formed as :func:`sphere_log` forms
    its distance, by ``arctan2`` of the perpendicular component, so it stays
    exact for angles far below 1e-8, which ``arccos(x^T y)`` reads as 0.
    An antipodal pair is at pi; a point holding NaN or inf raises
    :class:`NotUnitDirection`, as in :func:`sphere_log`."""
    x = np.asarray(x, dtype=float)
    c = float(np.clip(_cosine(x, y), -1.0, 1.0))
    return float(np.arctan2(_fro(project_tangent(x, y - c * x)), c))


class Sphere(Manifold):
    """S^{n-1} imbedded in R^n with the induced round metric."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        self.n = int(n)
        self.shape = (self.n,)

    @property
    def dim(self):
        return self.n - 1

    def exp(self, p, v, t=1.0):
        return sphere_exp(p, v, t)

    def transport(self, p, v, t, w):
        nv = _fro(v)
        if nv == 0.0:
            return np.asarray(w, dtype=float).copy()
        return sphere_transport(p, v / nv, t * nv, w)

    def velocity(self, p, v, t):
        nv = _fro(v)
        return v * np.cos(t * nv) - p * (nv * np.sin(t * nv))

    def inner(self, p, u, v):
        return float(np.asarray(u) @ np.asarray(v))

    def check_point(self, p):
        check_unit(p)


# ---------------------------------------------------------------------------
# Rayleigh quotient


def _shift_solve(objective, rho, x):
    """``y = P (T - rho I)^{-1} P^T x`` on ``objective``'s one reduction: one
    gtsv, O(n), and two ormqr calls, O(n^2), none for a tridiagonal ``Q``.
    Near an eigenvalue ``y`` is large, but the solve is backward stable and
    ``y`` is dominated by the target eigenvector.  On an exactly zero pivot
    or a non-finite ``y`` the shift moves by ``eps max(|Q|_F, tiny)``,
    doubled until the solve succeeds (it does for a finite ``rho`` and
    ``x``), as inverse iteration does: below the reduction's backward error,
    so ``y`` lies along the null vector to working accuracy.  A shift that
    is not finite (a NaN ``rho``, or a nudge grown past overflow by a
    non-finite ``x``) raises ValueError."""
    d, e = objective._reduction()[2:]
    b = _reflect(objective, x, "T")
    shift, nudge = rho, 0.0
    while True:
        if not np.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift!r}")
        y, info = _scipy("lapack").dgtsv(e, d - shift, e, b)[3:]
        # info > 0: an exactly zero pivot
        if info == 0 and np.all(np.isfinite(y := _reflect(objective, y, "N"))):
            return y
        # a Python float, which overflows to inf without a warning
        nudge = 2.0 * nudge or float(EPS * max(objective.Q_fro, np.finfo(float).tiny))
        shift = rho + nudge


def _reflect(objective, y, trans):
    """``P^T y`` (``trans="T"``) or ``P y`` (``"N"``) on rows 2..n of a copy of the
    vector ``y``, by one unblocked ormqr call; the plain copy when ``P = I``, for a
    tridiagonal ``Q``."""
    V, tau = objective._reduction()[:2]
    y = np.array(y, dtype=float)
    if V is not None:
        y[1:] = _scipy("lapack").dormqr("L", trans, V, tau, y[1:], 1)[0]
    return y


def rayleigh_newton_step(Q, x, objective=None):
    """Newton direction ``H = -x + y / (x^T y)`` with ``y = (Q - rho I)^{-1} x``
    and ``rho = x^T (Qx)``, projected onto the tangent space.

    ``Q`` is checked, and reduced unless it is tridiagonal, for this one
    call, unless the :class:`RayleighObjective` of this ``Q`` passes itself
    as ``objective``: it has checked ``Q`` and keeps one reduction for all
    its steps; without it, an ``x`` off the unit sphere raises
    :class:`NotUnitDirection`.  Raises :class:`StepDeclined`
    when the pivot is degenerate: ``|x^T y| < 1e-14 |y|``.
    """
    x = np.asarray(x, dtype=float)
    if objective is None:
        objective = RayleighObjective(Q)
        check_unit(x)
    y, ny = _rescaled(_shift_solve(objective, objective.report_value(x), x))
    pivot = float(x @ y)
    if not abs(pivot) >= 1e-14 * ny:
        raise StepDeclined("x^T (Q - rho I)^{-1} x vanishes; no tangent step")
    return project_tangent(x, -x + y / pivot)


def _qx_rho(Q, x):
    """``(Qx, x^T (Qx))``: the Rayleigh quotient's one point entry."""
    qx = Q @ x
    return qx, float(x @ qx)


def _line_rotation(a, b):
    # rotation (c, s) maximizing (b cos 2t + a sin 2t) / 2, branch chosen
    # for numerical stability; v = 1 - c formed without cancellation
    r = float(np.hypot(a, b))
    if r == 0.0:
        return 1.0, 0.0, 0.0
    if b >= 0.0:
        c = np.sqrt(0.5 * (1.0 + b / r))
        s = a / (2.0 * r * c)
    else:
        s = np.sqrt(0.5 * (1.0 - b / r))
        c = a / (2.0 * r * s)
    return float(c), float(s), float(s * s / (1.0 + c))


def _line_coefficients(Q, x, h, qx):
    # rho(x cos t + h sin t) = const + (b cos 2t + a sin 2t) / 2 for a unit h
    h = check_unit(h)
    qh = Q @ h
    return 2.0 * float(x @ qh), float(x @ qx) - float(h @ qh)


def rayleigh_line_max(Q, x, h):
    """Closed-form maximizer of ``rho`` along the great circle ``x c + h s``.

    Returns ``(c, s, v)`` with ``c^2 + s^2 = 1`` and ``v = 1 - c`` computed
    stably as ``s^2 / (1 + c)``.  When ``rho`` is constant on the circle
    (``a = b = 0``) the point is already optimal and ``(1, 0, 0)`` is
    returned.
    """
    x = np.asarray(x, dtype=float)
    return _line_rotation(*_line_coefficients(Q, x, h, Q @ x))


class RayleighObjective(MatrixObjective):
    """Extremization of the Rayleigh quotient ``rho(x) = x^T Q x`` for a
    finite, exactly symmetric ``Q`` (ValueError otherwise).  At round-off
    the gradient norm ``2|Qx - rho x|`` was measured at up to
    ``1.6 sqrt(n) eps |Q|_F`` (n = 2..1000, from Newton and quotient
    iteration); the objective's ``gradient_floor`` is ``6 sqrt(n) eps |Q|_F``.

    The library minimizes, so ``which='max'`` works on ``-rho`` and bridges
    signs internally; traces report the natural ``rho``.
    """

    def __init__(self, Q, which="max"):
        if which not in ("max", "min"):
            raise ValueError("which must be 'max' or 'min'")
        super().__init__(Q, Sphere)
        self._sign = -1.0 if which == "max" else 1.0
        self.gradient_floor = 6.0 * np.sqrt(self.Q.shape[0]) * EPS * self.Q_fro
        # a tridiagonal Q is its own T, as sytrd finds it (every tau = 0, a zero's
        # sign aside): column 0 settles a dense Q, else a count of nonzeros, with
        # no copy of Q; a diagonal Q then multiplies by its diagonal alone
        Q, self._reduced = self.Q, None
        if not np.any(Q[2:, 0]) and np.count_nonzero(Q) == (
                np.count_nonzero(np.diag(Q)) + 2 * np.count_nonzero(np.diag(Q, -1))):
            self._reduced = (None, None, np.diag(Q).copy(), np.diag(Q, -1).copy())
            if (T := _Tridiagonal(*self._reduced[2:])).e is None:
                self._op = T

    def _reduction(self):
        """``Q = P T P^T`` as ``(V, tau, d, e)``: ``T``'s diagonals and ``P``'s
        reflectors on coordinates 2..n, for ormqr; ``V = tau = None`` for a
        tridiagonal ``Q``, set at construction.  Any other takes one sytrd in
        8-column panels, 0.82 of the default 32-column time at n = 200 to 300.
        Built on first use and assigned whole, so threads never see half of one."""
        reduction, Q = self._reduced, self.Q
        if reduction is None:
            n, lapack = Q.shape[0], _scipy("lapack")
            # a fresh Fortran-ordered copy for sytrd's blocked code (lwork / n = 8-column
            # panels) to overwrite; a C-ordered Q is copied in memory order, as Q.T
            A = (Q.T if Q.flags.c_contiguous else Q).copy(order="F")
            A, d, e, tau, _ = lapack.dsytrd(A, lower=1, lwork=8 * n, overwrite_a=True)
            # the reflectors sit in A[1:, :-1] with leading dimension n, and
            # ormqr would copy that strided block on every call: move them,
            # 64 columns at a time from the left, to leading dimension n - 1
            # in the same buffer (a block's source lies past the earlier
            # blocks' destinations); the last reflector is trivial (tau = 0)
            m = n - 1
            V, R = A.ravel(order="F")[:m * m], A[1:, :m]
            for j in range(0, m, 64):
                V[j * m:(j + 64) * m] = R[:, j:j + 64].ravel(order="F")
            # ormqr sets each reflector's leading entry to its implicit 1 while
            # it applies it, then restores it, with the GIL released: store
            # the 1, so that threads sharing the objective all read it
            V[::m + 1] = 1.0
            reduction = self._reduced = (V.reshape((m, m), order="F"), tau, d, e)
        return reduction

    def value(self, x):
        return self._sign * self.report_value(x)

    def report_value(self, x):
        return self._at(x, _qx_rho)[1]

    def gradient(self, x):
        """Signed ``2(Qx - rho(x) x)``, with an explicit tangency projection.

        The projection removes the normal round-off component, which
        otherwise caps the attainable accuracy of gradient-based iterations
        near an eigenvector.
        """
        w, rho = self._at(x, _qx_rho)
        return self._sign * project_tangent(x, 2.0 * (w - rho * x))

    def hessian_apply(self, x, u):
        """Signed second-covariant-differential operator
        ``2 (I - xx^T)(Q - rho I) u``."""
        u = check_tangent(x, u)
        w = 2.0 * (self._op @ u - self.report_value(x) * u)
        return self._sign * project_tangent(x, w)

    def newton_direction(self, x):
        # identical for rho and -rho: H = -(Hess)^{-1} grad is sign-free
        return rayleigh_newton_step(self.Q, x, self)

    def residual_norm(self, x):
        """``|Qx - rho x|``, the eigen drivers' default error."""
        w, rho = self._at(x, _qx_rho)
        return _fro(w - rho * x)

    def exact_line_step(self, x, h):
        nh = _fro(h)
        if nh == 0.0:
            raise ZeroTangent("line search direction is zero")
        a, b = _line_coefficients(self._op, x, h / nh, self._at(x, _qx_rho)[0])
        # the maximizer of -value; t in (-pi/2, pi), and rho has period pi
        c, s, _ = _line_rotation(-self._sign * a, -self._sign * b)
        t = float(np.arctan2(s, c))
        return (t + np.pi if t < 0.0 else t) / nh


class _Tridiagonal:
    """``T @ x`` in O(n) from ``T``'s diagonals ``d`` and ``e``; ``d * x`` if ``e`` is zero."""

    def __init__(self, d, e):
        self.d, self.e = d, (e if np.any(e) else None)

    def __matmul__(self, x):
        y = self.d * x
        if self.e is not None:
            y[1:] += self.e * x[:-1]
            y[:-1] += self.e * x[1:]
        return y


class _ReducedRayleigh(RayleighObjective):
    """``objective``'s quotient on ``T`` of ``Q = P T P^T``, where a point ``z`` is
    ``P z``: its entry, products and shift solve (one gtsv) cost O(n)."""

    def __init__(self, objective):
        d, e = objective._reduction()[2:]
        vars(self).update(vars(objective), _op=_Tridiagonal(d, e), _last=(None, None),
                          _reduced=(None, None, d, e))
