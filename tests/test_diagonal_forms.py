"""The SO(n) objectives' per-step forms give the same bits as the dense
products they replace.

``[X, diag(d)]`` is formed as two scalings, also inside both Hessians,
``tr(H N)`` and ``tr(H Omega N)`` as traces of scalings, and Frobenius norms
without ``np.linalg.norm``'s dispatch.  Each entry of a dense product with a
diagonal factor has one nonzero term, so these forms must agree with the
dense oracles bit for bit, not only to round-off: a form that rounds
differently, such as ``X * (d - d[:, None])``, moves the iterates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_brockett,
    dense_brockett_neg_L,
    dense_commutator,
    dense_jacobi_gradient,
    dense_jacobi_neg_M,
    experiment_objective,
    rand_rotation,
    rand_skew,
    rand_sym,
)
from riemopt import BrockettObjective, JacobiObjective, so_geodesic
from riemopt import rotation
from riemopt.core import _fro
from riemopt.errors import StepDeclined
from riemopt.rotation import conjugated_matrix

SIZES = st.integers(2, 30)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _rhs(objective, T):
    """The right-hand side ``newton_direction`` hands to the inner solve."""
    seen = []

    def capture(apply_op, b, *args, **kwargs):
        seen.append(b)
        return np.zeros_like(b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotation, "_solve_definite", capture)
        objective.newton_direction(T)
    return seen[0]


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_diagonal_commutator_matches_dense_products(n, seed):
    rng = np.random.default_rng(seed)
    X, d = rng.normal(size=(n, n)), rng.normal(size=n)
    assert _bits(rotation._commutator_diag(X, d)) == _bits(dense_commutator(X, d))
    S = rand_skew(rng, n)
    assert _bits(rotation._commutator_diag(S, d)) == _bits(dense_commutator(S, d))


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_brockett_forms_match_dense_products(n, seed):
    rng = np.random.default_rng(seed)
    N = np.diag(rng.permutation(n) + rng.uniform(0.0, 0.5))
    obj = BrockettObjective(rand_sym(rng, n), N)
    T = rand_rotation(rng, n)
    H = conjugated_matrix(obj.Q, T)
    Omega = rand_skew(rng, n)
    if dense_brockett(H, N, Omega)[2] < 0.0:
        Omega = -Omega  # an ascent direction, so the step bound is defined
    gradient, value, step = dense_brockett(H, N, Omega)
    assert _bits(obj.gradient(T)) == _bits(gradient)
    assert _bits(obj.report_value(T)) == _bits(value)
    assert _bits(obj.step_estimate(T, Omega)) == _bits(step)
    assert _bits(_rhs(obj, T)) == _bits(-gradient)


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_jacobi_forms_match_dense_products(n, seed):
    rng = np.random.default_rng(seed)
    obj = JacobiObjective(rand_sym(rng, n))
    T = rand_rotation(rng, n)
    gradient = dense_jacobi_gradient(conjugated_matrix(obj.Q, T))
    assert _bits(obj.gradient(T)) == _bits(gradient)
    assert _bits(_rhs(obj, T)) == _bits(-gradient)


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_hessians_match_dense_products(n, seed):
    rng = np.random.default_rng(seed)
    N = np.diag(rng.permutation(n) + rng.uniform(0.0, 0.5))
    Q, T, X = rand_sym(rng, n), rand_rotation(rng, n), rand_skew(rng, n)
    H = conjugated_matrix(Q, T)
    brockett = BrockettObjective(Q, N).hessian_apply(T, X)
    assert _bits(brockett) == _bits(0.5 * dense_brockett_neg_L(H, N, X))
    assert _bits(JacobiObjective(Q).hessian_apply(T, X)) == _bits(dense_jacobi_neg_M(H, X))


def _dense_newton(obj, T):
    """The inner solve on the dense ``-L`` (twice Brockett's Hessian) with the
    right-hand side ``2 [H, N]`` and preconditioner entries
    ``2 (h_i - h_j)(nu_i - nu_j)``, or on Jacobi's dense ``-M``.  At twice
    the scale every CG scalar is the same, so the direction is too."""
    H = conjugated_matrix(obj.Q, T)
    h = np.diag(H)
    if isinstance(obj, BrockettObjective):
        N, nu = obj.N, np.diag(obj.N)
        apply_op = lambda X: dense_brockett_neg_L(H, N, X)
        b = 2.0 * (H @ N - N @ H)
        entries = 2.0 * np.subtract.outer(h, h) * np.subtract.outer(nu, nu)
    else:
        P = np.diag(h)
        apply_op = lambda X: dense_jacobi_neg_M(H, X)
        b = 2.0 * (H @ P - P @ H)
        entries = 2.0 * np.subtract.outer(h, h) ** 2
    return rotation._solve_definite(apply_op, b, diag=rotation._preconditioner(entries))


def _outcome(solve, *args):
    try:
        return _bits(solve(*args))
    except StepDeclined:
        return StepDeclined


@PROPERTY
@given(kind=st.sampled_from(["fig2", "jacobi"]), n=SIZES, seed=st.integers(0, 2**16),
       eps=st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, None]))
def test_newton_direction_matches_the_dense_solve(kind, n, seed, eps):
    obj, T_hat = experiment_objective(kind, n, seed)
    rng = np.random.default_rng(seed)
    T = rand_rotation(rng, n) if eps is None else so_geodesic(T_hat, rand_skew(rng, n), eps)
    assert _outcome(obj.newton_direction, T) == _outcome(_dense_newton, obj, T)


@pytest.mark.parametrize("kind", ["fig2", "jacobi"])
@pytest.mark.parametrize("n", [10, 20, 30])
def test_newton_direction_is_the_dense_solve_near_and_indefinite_far(kind, n):
    obj, T_hat = experiment_objective(kind, n, 0)
    rng = np.random.default_rng(n)
    T = so_geodesic(T_hat, rand_skew(rng, n), 1e-2 / np.sqrt(n))
    assert _bits(obj.newton_direction(T)) == _bits(_dense_newton(obj, T))
    T = rand_rotation(rng, n)
    with pytest.raises(StepDeclined, match="nonpositive curvature"):
        obj.newton_direction(T)
    with pytest.raises(StepDeclined, match="nonpositive curvature"):
        _dense_newton(obj, T)


@PROPERTY
@given(n=SIZES, m=SIZES, seed=SEEDS)
def test_fro_matches_numpy_norm(n, m, seed):
    A = np.random.default_rng(seed).normal(size=(n, m))
    # C-ordered, transposed (F-ordered), strided views, and a vector
    for view in (A, A.T, A[::2, 1::3], A.T[::3], A[:, 0], A.ravel()):
        assert _bits(_fro(view)) == _bits(np.linalg.norm(view))
