"""The rotation group SO(n) with two trace objectives on its isospectral orbit.

Rotations are n-by-n orthogonal matrices with unit determinant.  Tangent
vectors at a rotation ``T`` are kept in left-translated algebra coordinates:
a skew-symmetric ``X`` stands for the tangent ``T X``.  In these coordinates
geodesics are one-parameter subgroups ``T e^{tX}`` and parallel translation
along them is the conjugation ``Y -> e^{-tX/2} Y e^{tX/2}``.

The inner product on the algebra is ``<X, Y> = -tr(XY)``, the negative
trace form; for skew matrices it coincides with the Frobenius inner
product.  Gradients and second-differential operators below are stated in
this metric.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .core import Manifold, MatrixObjective, _fro
from .errors import NotRotation, StepDeclined

DRIFT_TOL = 1e-12
#: Smallest preconditioner entry, relative to the largest.
PRECOND_FLOOR = 1e-4
EPS = np.finfo(float).eps


def commutator(A, B):
    return A @ B - B @ A


def _commutator_diag(X, d):
    # [X, diag(d)]: each entry of the dense X D - D X has one nonzero term,
    # so the scalings give the same bits
    return X * d - d[:, None] * X


def diag_part(A):
    """Projection of a square matrix onto its diagonal."""
    return np.diag(np.diag(A))


def off_diagonal_norm(A):
    """Frobenius norm of the off-diagonal part."""
    return _fro(A - diag_part(A))


def skew_part(A):
    return 0.5 * (A - A.T)


def polar_orthonormalize(T):
    """Nearest orthogonal matrix (orthogonal factor of the polar form)."""
    U, _, Vt = np.linalg.svd(T)
    return U @ Vt


def _drift(R):
    """``|R^T R - I|_F``, the identity subtracted in place."""
    G = R.T @ R
    G.flat[:: len(G) + 1] -= 1.0
    return _fro(G)


def expm(X):
    """``e^X`` of a real skew ``X``, bitwise ``scipy.linalg.expm``.

    The same scaling and squaring (Al-Mohy and Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009) on scipy's own Pade kernels, without the dispatch: a
    nonzero skew matrix is neither diagonal nor triangular, so scipy always
    takes this generic path for it, and on zero the path gives the identity
    bit for bit, as scipy's diagonal path does.  The workspace is fresh per
    call, so the result shares no memory with the input or another result.
    """
    n = len(X)
    A = np.empty((5, n, n))
    A[0] = X
    m, s = pick_pade_structure(A)
    info = pade_UV_calc(A, m) if m >= 0 else m
    if info != 0:  # scipy's codes: m < 0 or info <= -11 is a failed allocation
        raise (MemoryError if m < 0 or info <= -11 else RuntimeError)(
            f"matrix exponential failed (error code {info})")
    E = A[0]
    for _ in range(s):
        E = E @ E
    return E


def so_geodesic(T, X, t=1.0):
    """Point ``T e^{tX}`` with drift control back onto the group."""
    R = np.asarray(T, dtype=float) @ expm(t * np.asarray(X, dtype=float))
    if _drift(R) > DRIFT_TOL:
        R = polar_orthonormalize(R)
    return R


def so_transport(Y, X, t=1.0):
    """Parallel translation of ``Y`` along ``e^{tX}``, in algebra coordinates.

    Conjugation by the half-geodesic: ``e^{-tX/2} Y e^{tX/2}``.
    """
    return _conjugate(expm(-(t / 2.0) * np.asarray(X, dtype=float)), Y)


def _conjugate(E, Y):
    # E Y E^T, the parallel translation for E = e^{-tX/2}
    return skew_part(E @ np.asarray(Y, dtype=float) @ E.T)


class SpecialOrthogonal(Manifold):
    """SO(n) with the bi-invariant negative-trace-form metric."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rotation group needs n >= 2")
        self.n = int(n)
        self._half = (None, None, None)

    @property
    def dim(self):
        return self.n * (self.n - 1) // 2

    def exp(self, p, v, t=1.0):
        return so_geodesic(p, v, t)

    def transport(self, p, v, t, w):
        # E kept for the last (identity of v, value of t): a step's two transports share it
        key, s, E = self._half
        if key is not v or s != t:
            E = expm(-(t / 2.0) * np.asarray(v, dtype=float))
            self._half = (v, t, E)
        return _conjugate(E, w)

    def velocity(self, p, v, t):
        return v  # e^{-tX/2} X e^{tX/2} = X

    def inner(self, p, u, v):
        # -tr(uv) equals the Frobenius pairing for skew matrices
        return float((np.asarray(u) * np.asarray(v)).sum())

    def check_point(self, p):
        drift = _drift(np.asarray(p, dtype=float))
        if not drift <= DRIFT_TOL:  # NaN fails too
            raise NotRotation(f"|T^T T - I|_F = {drift:.3e} exceeds {DRIFT_TOL:.1e}")


def _solve_definite(apply_op, b, *, diag):
    """Linear conjugate gradient for a self-adjoint positive definite
    operator on the algebra, in Frobenius arithmetic, preconditioned by the
    elementwise positive ``diag``.

    Stops when the residual norm drops below ``1e-12 |b|``, or after
    ``n(n-1)/2`` iterations, the algebra's dimension.  Raises
    :class:`StepDeclined` as soon as a search direction has
    nonpositive curvature.
    """
    nb = _fro(b)
    x = np.zeros_like(b)
    if nb == 0.0:
        return x
    n = b.shape[0]
    r = b.copy()
    p = r / diag
    rz = float(np.sum(r * p))
    for _ in range(n * (n - 1) // 2):
        Ap = apply_op(p)
        pAp = float(np.sum(p * Ap))
        if pAp <= 0.0:
            raise StepDeclined("operator has nonpositive curvature along a search direction")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if _fro(r) <= 1e-12 * nb:
            break
        z = r / diag
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _preconditioner(d):
    """Positive elementwise diagonal for :func:`_solve_definite` from the
    operator's entries ``d`` in the ``E_ij - E_ji`` basis at a diagonal
    ``H``: ``|d|``, floored at ``PRECOND_FLOOR`` of its largest entry, so
    that away from the optimum a poor guess only slows the solve down.
    The main diagonal, where skew matrices hold only round-off, gets the
    largest entry."""
    d = np.abs(d)
    top = d.max()
    if top == 0.0:
        return np.ones_like(d)
    d = np.maximum(d, PRECOND_FLOOR * top)
    np.fill_diagonal(d, top)
    return d


# ---------------------------------------------------------------------------
# Trace objective  f(T) = tr(T' Q T N)


def conjugated_matrix(Q, T):
    """``H = T^T Q T``, symmetrized to remove round-off asymmetry."""
    H = T.T @ Q @ T
    return 0.5 * (H + H.T)


def brockett_third_component(h, nu, X, i, j):
    """Component of the third covariant differential against a coordinate
    direction, valid at diagonal ``H = diag(h)``:

    ``-2 sum_{k != i,j} X_ik X_jk ((h_i nu_j - h_j nu_i)
    + (h_j nu_k - h_k nu_j) + (h_k nu_i - h_i nu_k))``

    Vanishes identically when ``h`` is proportional to ``nu``, the regime
    in which the Newton iteration turns cubic.
    """
    h = np.asarray(h, dtype=float)
    nu = np.asarray(nu, dtype=float)
    X = np.asarray(X, dtype=float)
    total = 0.0
    for k in range(len(h)):
        if k == i or k == j:
            continue
        total += X[i, k] * X[j, k] * (
            (h[i] * nu[j] - h[j] * nu[i])
            + (h[j] * nu[k] - h[k] * nu[j])
            + (h[k] * nu[i] - h[i] * nu[k])
        )
    return -2.0 * total


class BrockettObjective(MatrixObjective):
    """Maximization of ``f(T) = tr(T^T Q T N)``, run as minimization of its
    negative.  ``Q`` must be finite and exactly symmetric, ``N`` a finite
    diagonal matrix of the same size with pairwise distinct entries
    (ValueError otherwise).  Round-off in ``[H, N]`` is of order
    ``eps |Q|_F |N|_F``, the objective's ``gradient_floor``.  ``D`` is the
    maximizer's ``H``: the eigenvalues of ``Q`` on the diagonal, the
    largest in the slot of the largest entry of ``N``."""

    def __init__(self, Q, N):
        super().__init__(Q, SpecialOrthogonal)
        n = self.Q.shape[0]
        N = np.asarray(N, dtype=float)
        if N.shape != (n, n) or not np.all(np.isfinite(N)):
            raise ValueError(f"N must be a finite {n}-by-{n} matrix")
        if not np.array_equal(N, diag_part(N)):
            raise ValueError("N must be diagonal")
        if len(np.unique(np.diag(N))) != n:
            raise ValueError("N must have pairwise distinct diagonal entries")
        self.N = N
        self._nu = np.diag(N).copy()
        slots = np.argsort(self._nu)[::-1]
        self.D = np.zeros_like(N)
        self.D[slots, slots] = np.sort(np.linalg.eigvalsh(self.Q))[::-1]
        self.gradient_floor = EPS * (self.Q_fro * _fro(N))

    def value(self, T):
        return -self.report_value(T)

    def report_value(self, T):
        # tr(H N) as the trace of the scaling H * nu: the same bits
        return float((self._at(T, conjugated_matrix) * self._nu).trace())

    def gradient(self, T):
        """Descent gradient ``-[H, N]`` in algebra coordinates (the tangent
        at ``T`` is ``T [H, N]`` for the ascent of ``f``)."""
        return -_commutator_diag(self._at(T, conjugated_matrix), self._nu)

    def hessian_apply(self, T, X):
        """``-L(X)/2`` with ``L(X) = [H, [X, N]] - [[X, H], N]``: the second
        differential of ``f`` is ``-1/2 tr(L(X) Y)`` against a tangent
        ``T Y``, so that of ``-f`` is ``<-L(X)/2, Y>``.  At a diagonal
        ``H = diag(h)`` it is diagonal in the ``E_ij - E_ji`` basis, with
        entries ``(h_i - h_j)(nu_i - nu_j)``."""
        H = self._at(T, conjugated_matrix)
        return 0.5 * (_commutator_diag(commutator(X, H), self._nu)
                      - commutator(H, _commutator_diag(X, self._nu)))

    def newton_direction(self, T):
        """Newton direction: solves ``hessian_apply(T, X) = -gradient(T)`` by
        linear conjugate gradient, preconditioned by the Hessian's entries
        at the current ``diag(H)``.  Raises :class:`StepDeclined` on
        nonpositive curvature, as met away from the maximum."""
        H = self._at(T, conjugated_matrix)
        h, nu = np.diag(H), self._nu
        diag = _preconditioner(np.subtract.outer(h, h) * np.subtract.outer(nu, nu))
        b = _commutator_diag(H, nu)  # -gradient(T), without a gradient evaluation
        return _solve_definite(lambda X: self.hessian_apply(T, X), b, diag=diag)

    def step_estimate(self, T, Omega):
        """Curvature-bound step for the geodesic ``T e^{t Omega}``.

        With ``phi(t) = f(T e^{t Omega})`` and
        ``phi'(0) = 2 tr(H Omega N) > 0``, ``phi'`` stays nonnegative on
        ``[0, t]`` for ``t <= 2 tr(H Omega N) / (|[Omega, H]| |[Omega, N]|)``,
        so stepping by the bound never overshoots the first local maximum.
        """
        H = self._at(T, conjugated_matrix)
        HO = H @ Omega
        num = 2.0 * float((HO * self._nu).trace())
        if num <= 0.0:
            raise StepDeclined(f"phi'(0) = {num!r} is not positive")
        den = _fro(Omega @ H - HO) * _fro(_commutator_diag(Omega, self._nu))
        if den == 0.0:
            raise StepDeclined("step bound undefined: commutator norms vanish")
        return num / den

    def error_metric(self, T):
        """``|H - D|_F``: the distance of ``H = T^T Q T`` from the target ``D``."""
        return _fro(self._at(T, conjugated_matrix) - self.D)


# ---------------------------------------------------------------------------
# Diagonalization objective  f(T) = tr(H diag(H)),  H = T' Q T


class JacobiObjective(MatrixObjective):
    """Off-diagonal-mass reduction: maximization of ``f(T) = tr(H pi(H))``
    with ``H = T^T Q T`` and ``pi`` the diagonal projection, run as
    minimization of its negative.  ``Q`` must be finite and exactly
    symmetric (ValueError otherwise).  Round-off in ``2 [H, pi(H)]`` is of
    order ``2 eps |Q|_F^2``, the objective's ``gradient_floor``."""

    def __init__(self, Q):
        super().__init__(Q, SpecialOrthogonal)
        self.gradient_floor = 2.0 * EPS * self.Q_fro ** 2

    def value(self, T):
        return -self.report_value(T)

    def report_value(self, T):
        return float(np.sum(np.diag(self._at(T, conjugated_matrix)) ** 2))

    def gradient(self, T):
        """Descent gradient ``-2 [H, pi(H)]`` in algebra coordinates."""
        H = self._at(T, conjugated_matrix)
        return -2.0 * _commutator_diag(H, H.diagonal())

    def hessian_apply(self, T, X):
        """``-M(X)`` with ``M(X) = [H, [X, pi(H)]] - [[X, H], pi(H)]
        - 2 [H, pi([X, H])]``: the second differential of ``f`` is
        ``-tr(M(X) Y)``, so that of ``-f`` is ``<-M(X), Y>``.  At a diagonal
        ``H = diag(h)`` it is diagonal in the ``E_ij - E_ji`` basis, with
        entries ``2 (h_i - h_j)^2``."""
        H = self._at(T, conjugated_matrix)
        h, adXH = H.diagonal(), commutator(X, H)
        return (_commutator_diag(adXH, h) + 2.0 * _commutator_diag(H, adXH.diagonal())
                - commutator(H, _commutator_diag(X, h)))

    def newton_direction(self, T):
        """Newton direction: solves ``hessian_apply(T, X) = -gradient(T)`` by
        linear conjugate gradient, preconditioned by the Hessian's entries
        at the current ``diag(H)``.  Raises :class:`StepDeclined` on
        nonpositive curvature, as met away from a diagonalizer."""
        H = self._at(T, conjugated_matrix)
        h = H.diagonal()
        diag = _preconditioner(2.0 * np.subtract.outer(h, h) ** 2)
        b = 2.0 * _commutator_diag(H, h)  # -gradient(T), without a gradient evaluation
        return _solve_definite(lambda X: self.hessian_apply(T, X), b, diag=diag)

    def error_metric(self, T):
        return off_diagonal_norm(self._at(T, conjugated_matrix))
