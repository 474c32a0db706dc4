"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
library code under test: high-order finite differences, ODE integration of
the parallel-transport equation, dense operator matrices in coordinate
bases, truncated exponential series, brute-force scans, the SO(n)
objectives' diagonal commutators and Hessians as dense products, and both
Hessians in the library's two-product form.  A few helpers
only the tests use live here too: ``skew_exp`` (the group exponential of a
checked skew matrix), ``solve_projected_linear`` (the projected Newton
equation by dense solves) and its error ``SingularMatrix``,
``reference_steepest_descent`` (steepest descent as a loop of its own),
``reference_newton_direction`` (the SO(n) Newton direction by a
preconditioned conjugate gradient of its own), ``reduced_eigen_trace``
(the trace an eigen driver reports on a ``Q`` it reduces, by that trace's
definition) and ``tridiagonal_quotient`` (the quotient and residual on ``T``),
``recording`` (an error function that keeps every iterate, which a trace
does not), ``commutator`` (``AB - BA`` as two dense products),
``read_trace_csv`` (a trace file read back) and ``experiment_objective``
(the objective of a CLI experiment).
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lapack

from riemopt import (BrockettObjective, IterationTrace, JacobiObjective, RayleighObjective,
                     line_minimize_geodesic)
from riemopt.errors import RiemoptError, SolverError, StepDeclined
from riemopt.experiments import fig2_matrices, jacobi_matrices
from riemopt.sphere import _ReducedRayleigh

SKEW_TOL = 1e-12


class SingularMatrix(RiemoptError):
    """Raised by :func:`solve_projected_linear` on an exactly singular ``A``."""


def fd_slope(f, h=1e-5):
    """Central first difference of a scalar function of one variable at 0."""
    return (f(h) - f(-h)) / (2.0 * h)


def fd_curvature(f, h=1e-4):
    """Central second difference at 0."""
    return (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


def fd_third_mixed(g, hs=1e-2, ht=1e-2):
    """d/ds d^2/dt^2 g(s, t) at (0, 0) with fourth-order stencils."""
    def d2t(s):
        vals = [g(s, t) for t in (-2 * ht, -ht, 0.0, ht, 2 * ht)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * ht * ht)

    return (d2t(-2 * hs) - 8 * d2t(-hs) + 8 * d2t(hs) - d2t(2 * hs)) / (12 * hs)


def transport_ode_sphere(x, h, t_end, v, rtol=1e-12, atol=1e-14):
    """Integrate the parallel-transport equation v' = -(x'(t) . v) x(t)
    along the unit-speed great circle x(t) = x cos t + h sin t."""
    x = np.asarray(x, float)
    h = np.asarray(h, float)

    def rhs(t, y):
        xt = x * np.cos(t) + h * np.sin(t)
        dxt = -x * np.sin(t) + h * np.cos(t)
        return -(dxt @ y) * xt

    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(v, float), rtol=rtol, atol=atol,
                    dense_output=False)
    assert sol.success
    return sol.y[:, -1]


def transport_ode_rotation(X, Y, t_end, rtol=1e-12, atol=1e-14):
    """Integrate Y' = -1/2 [X, Y] (algebra coordinates of parallel transport
    along the one-parameter subgroup e^{tX})."""
    n = X.shape[0]

    def rhs(t, y):
        Ym = y.reshape(n, n)
        return (-0.5 * (X @ Ym - Ym @ X)).ravel()

    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(Y, float).ravel(), rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def expm_series(X, terms=30):
    """Truncated exponential series sum X^k / k!."""
    n = X.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    return out


def check_skew(X, tol=SKEW_TOL):
    X = np.asarray(X, dtype=float)
    dev = np.linalg.norm(X + X.T)
    if dev > tol * max(1.0, np.linalg.norm(X)):
        raise ValueError(f"matrix is not skew-symmetric (deviation {dev:.3e})")
    return X


def skew_exp(X, t=1.0):
    """Geodesic from the identity: the matrix exponential ``e^{tX}`` of a
    checked skew ``X``."""
    return expm(t * check_skew(X))


def solve_projected_linear(A, x, v):
    """Solve ``(I - xx^T) A u = v`` for a tangent ``u`` at ``x``.

    Uses ``u = A^{-1}(v - (x^T A^{-1} v)/(x^T A^{-1} x) x)``, which is
    tangent by construction, with both solves by ``numpy.linalg.solve``.
    The pivot ``x^T A^{-1} x`` is degenerate below ``1e-14 |A^{-1} x|``.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    try:
        sol = np.linalg.solve(A, np.column_stack([v, x]))
    except np.linalg.LinAlgError:
        raise SingularMatrix("A is exactly singular") from None
    Av, Ax = sol[:, 0], sol[:, 1]
    pivot = float(x @ Ax)
    if abs(pivot) < 1e-14 * np.linalg.norm(Ax):
        raise StepDeclined(f"|x^T A^-1 x| = {abs(pivot):.3e} too small")
    u = Av - (float(x @ Av) / pivot) * Ax
    return u - (x @ u) * x


def skew_basis(n):
    """Coordinate basis E_ij (i<j): +1 at (i,j), -1 at (j,i)."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = -1.0
            basis.append(((i, j), E))
    return basis


def dense_skew_solve(apply_op, rhs):
    """Solve a linear operator equation on skew matrices by building the
    full operator matrix in the E_ij coordinate basis."""
    n = rhs.shape[0]
    basis = skew_basis(n)
    d = len(basis)
    M = np.zeros((d, d))
    for col, (_, E) in enumerate(basis):
        LE = apply_op(E)
        for row, ((k, l), _) in enumerate(basis):
            M[row, col] = LE[k, l]
    b = np.array([rhs[k, l] for (k, l), _ in basis])
    coeffs = np.linalg.solve(M, b)
    X = np.zeros((n, n))
    for c, ((i, j), _) in enumerate(basis):
        X[i, j] = coeffs[c]
        X[j, i] = -coeffs[c]
    return X


def commutator(A, B):
    """``[A, B] = AB - BA`` as two dense products and a subtraction."""
    return A @ B - B @ A


def dense_commutator(X, d):
    """``[X, diag(d)]`` as two dense products and a subtraction."""
    D = np.diag(d)
    return X @ D - D @ X


def dense_brockett(H, N, Omega):
    """Brockett's descent gradient ``-[H, N]``, value ``tr(HN)`` and step
    bound along ``Omega`` by dense products, with ``np.trace`` and
    ``np.linalg.norm``."""
    num = 2.0 * float(np.trace(H @ Omega @ N))
    den = np.linalg.norm(Omega @ H - H @ Omega) * np.linalg.norm(Omega @ N - N @ Omega)
    return -(H @ N - N @ H), float(np.trace(H @ N)), num / den


def dense_jacobi_gradient(H):
    """Jacobi's descent gradient ``-2 [H, pi(H)]`` by dense products."""
    P = np.diag(np.diag(H))
    return -2.0 * (H @ P - P @ H)


def dense_brockett_neg_L(H, N, X):
    """``-L(X) = [[X, H], N] - [H, [X, N]]``, twice Brockett's Hessian, by
    dense products with the dense diagonal ``N``."""
    XH = X @ H - H @ X
    XN = X @ N - N @ X
    return (XH @ N - N @ XH) - (H @ XN - XN @ H)


def dense_jacobi_neg_M(H, X):
    """``-M(X) = [[X, H], P] + 2 [H, pi([X, H])] - [H, [X, P]]`` with
    ``P = pi(H)``, Jacobi's Hessian, by dense products."""
    P = np.diag(np.diag(H))
    XH = X @ H - H @ X
    D = np.diag(np.diag(XH))
    XP = X @ P - P @ X
    return (XH @ P - P @ XH) + 2.0 * (H @ D - D @ H) - (H @ XP - XP @ H)


def two_product_brockett_neg_L(H, nu, X):
    """``-L(X)``, twice Brockett's Hessian, with one product per commutator:
    ``W - W^T`` with ``W = (XH) o Delta - H (X o Delta)`` and
    ``Delta_ij = nu_j - nu_i``, for skew ``X`` and symmetric ``H``.  Half of
    it is bitwise the library's operator, whose ``Delta`` holds the half."""
    delta = -np.subtract.outer(nu, nu)
    W = (X @ H) * delta - H @ (X * delta)
    return W - W.T


def two_product_jacobi_neg_M(H, X):
    """``-M(X)``, Jacobi's Hessian, with one product per commutator: the
    form of :func:`two_product_brockett_neg_L` with ``Delta_ij = h_j - h_i``,
    plus ``2 [H, pi([X, H])]`` as ``V - V^T`` with ``V = 2 H diag(g)`` and
    ``g = diag([X, H]) = 2 diag(XH)``, added inside ``W``, in the library's
    order of operations."""
    delta = -np.subtract.outer(np.diag(H), np.diag(H))
    XH = X @ H
    g = 2.0 * np.diag(XH)
    W = XH * delta - H @ (X * delta) + 2.0 * H * g
    return W - W.T


def experiment_objective(kind, n, seed):
    """Objective of the CLI experiment ``kind`` (``fig2`` or ``jacobi``)
    and its optimum ``T_hat``."""
    if kind == "fig2":
        Q, N, T_hat = fig2_matrices(n, seed)
        return BrockettObjective(Q, N), T_hat
    Q, T_hat = jacobi_matrices(n, seed)
    return JacobiObjective(Q), T_hat


def circle_scan_max(fun, resolution=1e-5):
    """Brute-force argmax of a pi-periodic function over [0, pi)."""
    ts = np.arange(0.0, np.pi, resolution)
    vals = fun(ts)
    return float(ts[np.argmax(vals)])


def rand_sym(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return 0.5 * (A + A.T)


def rand_skew(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A - A.T)


def rand_rotation(rng, n):
    A = rng.normal(size=(n, n))
    V, R = np.linalg.qr(A)
    V = V @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(V) < 0:
        V[:, -1] = -V[:, -1]
    return V


def rand_unit(rng, n):
    x = rng.normal(size=n)
    return x / np.linalg.norm(x)


def midpoint_start(n, i, k):
    """``(e_i + e_k) / sqrt 2``: on a diagonal ``Q`` with equally spaced
    entries, ``rho`` there is the eigenvalue between the two to working
    precision, so the shift is singular though the point is not critical."""
    x = np.zeros(n)
    x[[i, k]] = 1.0
    return x / np.sqrt(2.0)


def rand_tangent(rng, x, unit=True):
    u = rng.normal(size=len(x))
    u = u - (x @ u) * x
    return u / np.linalg.norm(u) if unit else u


def axis_angle(x, axis):
    c = abs(float(x @ axis))
    s = float(np.linalg.norm(x - (x @ axis) * axis))
    return float(np.arctan2(s, c))


def reference_steepest_descent(objective, p, config, error_fn=None):
    """Steepest descent as a loop of its own, with no conjugate-gradient
    machinery: line-minimize along the negative gradient until its norm
    drops below ``max(grad_tol, gradient_floor)``.  Returns ``(trace,
    failure)``, where ``failure`` is the line-search error that stopped the
    run, or None."""
    error_fn = error_fn or objective.error_metric
    M = objective.manifold
    tol = max(config.grad_tol, objective.gradient_floor)
    g = objective.gradient(p)
    trace = IterationTrace()
    trace.append(p, objective.report_value(p), M.norm(p, g), error_fn(p))
    for _ in range(config.max_iter):
        if trace.grad_norms[-1] < tol:
            break
        try:
            ls = line_minimize_geodesic(objective, p, -g, config)
        except RiemoptError as exc:
            return trace, exc
        trace.record_step(ls.step)
        p = ls.point
        g = objective.gradient(p)
        trace.append(p, objective.report_value(p), M.norm(p, g), error_fn(p))
    trace.converged = trace.grad_norms[-1] < tol
    return trace, None


def reference_newton_direction(objective, T):
    """A Brockett or Jacobi objective's Newton direction by a preconditioned
    conjugate gradient of its own, on the objective's ``hessian_apply``,
    with every constant stated here: the preconditioner is the Hessian's
    entries at ``diag(H)``, ``(h_i - h_j)(nu_i - nu_j)`` or
    ``2 (h_i - h_j)^2``, in absolute value, floored at 1e-4 of the largest,
    which also fills the main diagonal; the solve stops once the residual
    drops to 1e-12 of ``|b|``, or after ``n(n-1)/2`` steps.  In the
    library's order of operations, each inner product one ``np.vdot``, so
    the direction is bitwise the library's.  Returns ``(X, relative
    residual per step, preconditioner)``."""
    H = T.T @ objective.Q @ T
    H = 0.5 * (H + H.T)
    h = np.diag(H)
    if isinstance(objective, BrockettObjective):
        nu = np.diag(objective.N)
        d = (h[:, None] - h[None, :]) * (nu[:, None] - nu[None, :])
        b = H * nu - nu[:, None] * H
    else:
        d = 2.0 * (h[:, None] - h[None, :]) ** 2
        b = 2.0 * (H * h - h[:, None] * H)
    d = np.abs(d)
    top = d.max()
    d = np.maximum(d, 1e-4 * top)
    np.fill_diagonal(d, top)
    nb = np.linalg.norm(b)
    X, r = np.zeros_like(b), b.copy()
    p = r / d
    rz = float(np.vdot(r, p))
    residuals = []
    for _ in range(len(h) * (len(h) - 1) // 2):
        Ap = objective.hessian_apply(T, p)
        alpha = rz / float(np.vdot(p, Ap))
        X = X + alpha * p
        r = r - alpha * Ap
        nr = np.linalg.norm(r)
        residuals.append(nr / nb)
        if nr <= 1e-12 * nb:
            break
        z = r / d
        rz_next = float(np.vdot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    return X, residuals, d


def recording(error_fn=None):
    """``(record, points)``: an error function that appends each point it is
    called on to the list ``points`` and returns ``error_fn`` of it (0.0 when
    None).  A solver calls it once per trace row, in row order, on that row's
    iterate, so ``points`` holds every iterate where the trace keeps the
    first and the last."""
    points = []

    def record(p):
        points.append(p)
        return 0.0 if error_fn is None else error_fn(p)

    return record, points


def tridiagonal_quotient(d, e, z):
    """``(rho, |Tz - rho z|)`` for the tridiagonal ``T`` of diagonal ``d`` and
    off-diagonal ``e``: ``Tz`` as ``d z``, plus ``e`` times ``z`` shifted down,
    plus ``e`` times ``z`` shifted up, in that order."""
    y = d * z
    y[1:] += e * z[:-1]
    y[:-1] += e * z[1:]
    rho = float(z @ y)
    return rho, float(np.linalg.norm(y - rho * z))


def reduced_eigen_trace(loop, Q, x0, config, error_fn=None):
    """The trace an eigen driver reports on a ``Q`` that is not tridiagonal,
    by its definition: the solver ``loop`` run on the quotient of ``T`` for
    ``Q = P T P^T`` (the objective's sytrd), with ``config`` as given, from
    ``P^T x0 / |x0|``.  Its points are mapped back by ``P`` in one ormqr, the
    unblocked code up to 16 columns and the blocked one above; its values,
    gradient norms and steps are the loop's.  Its errors are ``error_fn`` on
    the points mapped back, or else :func:`tridiagonal_quotient`'s residual
    of each loop point but the last, whose error is the dense
    ``|Qx - rho x|`` of the point mapped back.  The quotient is maximized.
    Returns ``(trace, points, failure)``: the trace, which keeps the first
    and the last point, every point mapped back, and the type of the
    :class:`SolverError` that stopped the loop, or None."""
    objective = RayleighObjective(Q)
    V, tau, d, e = objective._reduction()
    z0 = x0 / np.linalg.norm(x0)
    z0[1:] = lapack.dormqr("L", "T", V, tau, z0[1:], 1)[0]
    record, seen = recording(lambda z: tridiagonal_quotient(d, e, z)[1])
    try:
        trace, failure = loop(_ReducedRayleigh(objective), z0, config, record), None
    except SolverError as exc:
        trace, failure = exc.trace, type(exc)
    out = IterationTrace(converged=trace.converged)
    if not seen:
        return out, [], failure
    Z = np.array(seen).T
    k = Z.shape[1]
    Z[1:] = lapack.dormqr("L", "N", V, tau, Z[1:], k if k <= 16 else 64 * k + 4160)[0]
    x = Z[:, -1]
    rho = float(x @ (Q @ x))
    errors = trace.errors[:-1] + [float(np.linalg.norm(Q @ x - rho * x))]
    if error_fn is not None:
        errors = [error_fn(p) for p in Z.T]
    for row in zip(Z.T, trace.values, trace.grad_norms, errors, trace.steps):
        out.append(*row)
    return out, list(Z.T), failure


def read_trace_csv(path):
    """Parse a trace file back into an :class:`IterationTrace` (points are
    not stored in the CSV and come back as None)."""
    trace = IterationTrace()
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("iter,"):
            raise ValueError(f"{path} is not a trace file")
        for line in fh:
            if not line.strip():
                continue
            _, value, grad_norm, error, step = line.strip().split(",")
            trace.append(None, float(value), float(grad_norm), float(error), float(step))
    return trace
