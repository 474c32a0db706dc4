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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import GeodesicObjective, Manifold
from .errors import (
    DegenerateCommutator,
    IndefiniteOperator,
    NotAscentDirection,
)

SKEW_TOL = 1e-12
DRIFT_TOL = 1e-12


def commutator(A, B):
    return A @ B - B @ A


def diag_part(A):
    """Projection of a square matrix onto its diagonal."""
    return np.diag(np.diag(A))


def off_diagonal_norm(A):
    """Frobenius norm of the off-diagonal part."""
    return float(np.linalg.norm(A - diag_part(A)))


def skew_part(A):
    return 0.5 * (A - A.T)


def check_skew(X, tol=SKEW_TOL):
    X = np.asarray(X, dtype=float)
    dev = np.linalg.norm(X + X.T)
    if dev > tol * max(1.0, np.linalg.norm(X)):
        raise ValueError(f"matrix is not skew-symmetric (deviation {dev:.3e})")
    return X


def polar_orthonormalize(T):
    """Nearest orthogonal matrix (orthogonal factor of the polar form)."""
    U, _, Vt = np.linalg.svd(T)
    return U @ Vt


def skew_exp(X, t=1.0):
    """Geodesic from the identity: the matrix exponential ``e^{tX}``."""
    X = check_skew(X)
    return expm(t * X)


def so_geodesic(T, X, t=1.0):
    """Point ``T e^{tX}`` with drift control back onto the group."""
    R = np.asarray(T, dtype=float) @ expm(t * np.asarray(X, dtype=float))
    n = R.shape[0]
    if np.linalg.norm(R.T @ R - np.eye(n)) > DRIFT_TOL:
        R = polar_orthonormalize(R)
    return R


def so_transport(Y, X, t=1.0):
    """Parallel translation of ``Y`` along ``e^{tX}``, in algebra coordinates.

    Conjugation by the half-geodesic: ``e^{-tX/2} Y e^{tX/2}``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    E = expm(-(t / 2.0) * X)
    return skew_part(E @ Y @ E.T)


class SpecialOrthogonal(Manifold):
    """SO(n) with the bi-invariant negative-trace-form metric."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("rotation group needs n >= 2")
        self.n = int(n)

    @property
    def dim(self):
        return self.n * (self.n - 1) // 2

    def exp(self, p, v, t=1.0):
        return so_geodesic(p, v, t)

    def transport(self, p, v, t, w):
        return so_transport(w, v, t)

    def inner(self, p, u, v):
        # -tr(uv) equals the Frobenius pairing for skew matrices
        return float(np.sum(np.asarray(u) * np.asarray(v)))


def _solve_definite(apply_op, b, rel_tol=1e-12, max_iter=None):
    """Linear conjugate gradient for a self-adjoint positive definite
    operator on the algebra, in Frobenius arithmetic.

    Raises :class:`IndefiniteOperator` as soon as a search direction has
    nonpositive curvature.
    """
    nb = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if nb == 0.0:
        return x
    if max_iter is None:
        n = b.shape[0]
        max_iter = n * (n - 1) // 2
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    for _ in range(max_iter):
        Ap = apply_op(p)
        pAp = float(np.sum(p * Ap))
        if pAp <= 0.0:
            raise IndefiniteOperator("operator has nonpositive curvature along a search direction")
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.sum(r * r))
        if np.sqrt(rs_new) <= rel_tol * nb:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


# ---------------------------------------------------------------------------
# Trace objective  f(T) = tr(T' Q T N)


@dataclass(frozen=True)
class BrockettProblem:
    """Data for ``f(T) = tr(T^T Q T N)``: symmetric ``Q``, diagonal ``N``
    with pairwise distinct entries."""

    Q: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric as stored")
        if not np.array_equal(N, diag_part(N)):
            raise ValueError("N must be diagonal")
        d = np.diag(N)
        if len(np.unique(d)) != len(d):
            raise ValueError("N must have pairwise distinct diagonal entries")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "N", N)

    @property
    def n(self):
        return self.Q.shape[0]


def conjugated_matrix(prob, T):
    """``H = T^T Q T``, symmetrized to remove round-off asymmetry."""
    H = T.T @ prob.Q @ T
    return 0.5 * (H + H.T)


def brockett_value(prob, T):
    return float(np.trace(conjugated_matrix(prob, T) @ prob.N))


def brockett_gradient(prob, T):
    """Ascent gradient ``[H, N]`` in algebra coordinates (the tangent at
    ``T`` is ``T [H, N]``)."""
    return commutator(conjugated_matrix(prob, T), prob.N)


def brockett_step_estimate(prob, T, Omega):
    """Curvature-bound step for the geodesic ``T e^{t Omega}``.

    With ``phi(t) = f(T e^{t Omega})`` and ``phi'(0) = 2 tr(H Omega N) > 0``,
    ``phi'`` stays nonnegative on ``[0, t]`` for
    ``t <= 2 tr(H Omega N) / (|[Omega, H]| |[Omega, N]|)``, so stepping by
    the bound never overshoots the first local maximum.
    """
    H = conjugated_matrix(prob, T)
    num = 2.0 * float(np.trace(H @ Omega @ prob.N))
    if num <= 0.0:
        raise NotAscentDirection(f"phi'(0) = {num!r} is not positive")
    den = np.linalg.norm(commutator(Omega, H)) * np.linalg.norm(commutator(Omega, prob.N))
    if den == 0.0:
        raise DegenerateCommutator("step bound undefined: commutator norms vanish")
    return num / den


def _brockett_neg_L(H, N, X):
    # -L(X) in the form the Newton solve applies
    return commutator(commutator(X, H), N) - commutator(H, commutator(X, N))


def brockett_hessian_operator(prob, T, X):
    """``L(X) = [H, [X, N]] - [[X, H], N]``; the second-differential form is
    ``-1/2 tr(L(X) Y)`` against a tangent ``T Y``."""
    return -_brockett_neg_L(conjugated_matrix(prob, T), prob.N, X)


def brockett_newton_direction(prob, T, rel_tol=1e-12):
    """Newton direction: the skew ``X`` with ``L(X) = -2 [H, N]``.

    Solved as ``(-L)(X) = 2 [H, N]`` by linear conjugate gradient, since
    ``-L`` is positive definite near the maximum.  Raises
    :class:`IndefiniteOperator` away from it.
    """
    H = conjugated_matrix(prob, T)
    b = 2.0 * commutator(H, prob.N)
    return _solve_definite(lambda X: _brockett_neg_L(H, prob.N, X), b, rel_tol=rel_tol)


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


def similarly_ordered_diagonal(prob, H):
    """Diagonal matrix of the eigenvalues of ``H`` arranged so their order
    matches the ordering of the diagonal of ``N``."""
    ev = np.sort(np.linalg.eigvalsh(H))[::-1]
    slots = np.argsort(np.diag(prob.N))[::-1]
    D = np.zeros_like(H)
    D[slots, slots] = ev
    return D


class BrockettObjective(GeodesicObjective):
    """Maximization of ``tr(T^T Q T N)``, run as minimization of its negative."""

    def __init__(self, Q, N=None):
        if isinstance(Q, BrockettProblem):
            self.problem = Q
        else:
            self.problem = BrockettProblem(np.asarray(Q, dtype=float), np.asarray(N, dtype=float))
        self._manifold = SpecialOrthogonal(self.problem.n)

    @property
    def manifold(self):
        return self._manifold

    def value(self, T):
        return -brockett_value(self.problem, T)

    def report_value(self, T):
        return brockett_value(self.problem, T)

    def gradient(self, T):
        return -brockett_gradient(self.problem, T)

    def hessian_apply(self, T, X):
        # second differential of -f is +1/2 tr(L(X) Y) = <-L(X)/2, Y>
        return -0.5 * brockett_hessian_operator(self.problem, T, X)

    def newton_direction(self, T):
        return brockett_newton_direction(self.problem, T)

    def step_estimate(self, T, X):
        return brockett_step_estimate(self.problem, T, X)

    def error_metric(self, T):
        H = conjugated_matrix(self.problem, T)
        return float(np.linalg.norm(H - similarly_ordered_diagonal(self.problem, H)))


# ---------------------------------------------------------------------------
# Diagonalization objective  f(T) = tr(H diag(H)),  H = T' Q T


@dataclass(frozen=True)
class JacobiProblem:
    """Data for ``f(T) = tr(H pi(H))`` with ``H = T^T Q T`` and ``pi`` the
    diagonal projection; maximizing it drains the off-diagonal mass."""

    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric as stored")
        object.__setattr__(self, "Q", Q)

    @property
    def n(self):
        return self.Q.shape[0]


#: ``H = T^T Q T`` for the diagonalization objective: the same map as for
#: the trace objective, since it reads only ``prob.Q``.
jacobi_conjugated = conjugated_matrix


def jacobi_value(prob, T):
    H = conjugated_matrix(prob, T)
    return float(np.sum(np.diag(H) ** 2))


def jacobi_gradient(prob, T):
    """Ascent gradient ``2 [H, pi(H)]`` in algebra coordinates."""
    H = conjugated_matrix(prob, T)
    return 2.0 * commutator(H, diag_part(H))


def _jacobi_neg_M(H, P, X):
    # -M(X) in the form the Newton solve applies, with P = pi(H)
    adXH = commutator(X, H)
    return (commutator(adXH, P)
            + 2.0 * commutator(H, diag_part(adXH))
            - commutator(H, commutator(X, P)))


def jacobi_hessian_operator(prob, T, X):
    """``M(X) = [H, [X, pi(H)]] - [[X, H], pi(H)] - 2 [H, pi([X, H])]``;
    the second-differential form is ``-tr(M(X) Y)``."""
    H = conjugated_matrix(prob, T)
    return -_jacobi_neg_M(H, diag_part(H), X)


def jacobi_newton_direction(prob, T, rel_tol=1e-12):
    """Newton direction: the skew ``X`` with ``M(X) = -2 [H, pi(H)]``,
    solved as ``(-M)(X) = 2 [H, pi(H)]`` against the operator that is
    positive definite near a diagonalizer."""
    H = conjugated_matrix(prob, T)
    P = diag_part(H)
    b = 2.0 * commutator(H, P)
    return _solve_definite(lambda X: _jacobi_neg_M(H, P, X), b, rel_tol=rel_tol)


class JacobiObjective(GeodesicObjective):
    """Off-diagonal-mass reduction, run as minimization of ``-tr(H pi(H))``."""

    def __init__(self, Q):
        self.problem = Q if isinstance(Q, JacobiProblem) else JacobiProblem(np.asarray(Q, dtype=float))
        self._manifold = SpecialOrthogonal(self.problem.n)

    @property
    def manifold(self):
        return self._manifold

    def value(self, T):
        return -jacobi_value(self.problem, T)

    def report_value(self, T):
        return jacobi_value(self.problem, T)

    def gradient(self, T):
        return -jacobi_gradient(self.problem, T)

    def hessian_apply(self, T, X):
        return -jacobi_hessian_operator(self.problem, T, X)

    def newton_direction(self, T):
        return jacobi_newton_direction(self.problem, T)

    def error_metric(self, T):
        return off_diagonal_norm(conjugated_matrix(self.problem, T))
