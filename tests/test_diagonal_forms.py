"""The SO(n) objectives' per-step forms give the same bits as the dense
products they replace.

``[X, diag(d)]`` is formed as two scalings, ``tr(H N)`` and ``tr(H Omega N)``
as traces of scalings, and Frobenius norms without ``np.linalg.norm``'s
dispatch.  Each entry of a dense product with a diagonal factor has one
nonzero term, so these forms must agree with the dense oracles bit for bit,
not only to round-off: a form that rounds differently, such as
``X * (d - d[:, None])``, moves the iterates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_brockett,
    dense_commutator,
    dense_jacobi_gradient,
    rand_rotation,
    rand_skew,
    rand_sym,
)
from riemopt import BrockettObjective, JacobiObjective
from riemopt import rotation
from riemopt.core import _fro
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
    assert _bits(_rhs(obj, T)) == _bits(-2.0 * gradient)


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
@given(n=SIZES, m=SIZES, seed=SEEDS)
def test_fro_matches_numpy_norm(n, m, seed):
    A = np.random.default_rng(seed).normal(size=(n, m))
    # C-ordered, transposed (F-ordered), strided views, and a vector
    for view in (A, A.T, A[::2, 1::3], A.T[::3], A[:, 0], A.ravel()):
        assert _bits(_fro(view)) == _bits(np.linalg.norm(view))
