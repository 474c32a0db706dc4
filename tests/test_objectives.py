"""Entry checks of the three objectives, and their gradient and Hessian
operator against geodesic finite differences over random sizes and seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rand_rotation, rand_skew, rand_sym, rand_tangent, rand_unit
from riemopt import (
    BrockettObjective,
    JacobiObjective,
    RayleighObjective,
    cg_extreme_eigen,
    newton,
    newton_rayleigh,
    rqi,
)
from riemopt.experiments import FD_GRAD_TARGET, FD_HESS_TARGET
from riemopt.fdcheck import geodesic_curvature, geodesic_slope, relative_error


def descending_diag(n):
    return np.diag(np.arange(n, 0, -1.0))


#: The three objectives as functions of ``Q`` (Brockett with a 3-by-3 ``N``).
each_objective = pytest.mark.parametrize(
    "make", [lambda Q: BrockettObjective(Q, descending_diag(3)), JacobiObjective, RayleighObjective],
    ids=["brockett", "jacobi", "rayleigh"])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@each_objective
def test_objectives_reject_a_non_finite_matrix(make, bad):
    Q = np.diag([3.0, 2.0, 1.0])
    Q[0, 2] = Q[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        make(Q)


@each_objective
def test_objectives_reject_a_non_symmetric_matrix(make):
    Q = np.diag([3.0, 2.0, 1.0])
    Q[0, 2] = 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        make(Q)


@each_objective
def test_objectives_reject_a_matrix_whose_norm_overflows(make):
    with pytest.raises(ValueError, match=r"\|Q\|_F"):
        make(1e154 * descending_diag(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [
    lambda Q: BrockettObjective(Q, descending_diag(3)), JacobiObjective, RayleighObjective,
    *(lambda Q, d=d: d(Q, np.ones(3)) for d in (rqi, newton_rayleigh, cg_extreme_eigen))],
    ids=["brockett", "jacobi", "rayleigh", "rqi", "newton_rayleigh", "cg_extreme_eigen"])
def test_an_overflowing_norm_raises_only_the_value_error(make):
    # no RuntimeWarning from forming |Q|_F ahead of the ValueError
    with pytest.raises(ValueError, match=r"\|Q\|_F"):
        make(1e160 * descending_diag(3))


def _q3(entries, scale=1.0):
    """``scale * diag(3, 2, 1)`` with the given ``{(i, j): value}`` set first."""
    Q = np.diag([3.0, 2.0, 1.0])
    for (i, j), value in entries.items():
        Q[i, j] = value
    return scale * Q


_BAD_Q = {
    "nan": (_q3({(0, 2): np.nan, (2, 0): np.nan}), "Q must be finite"),
    "inf": (_q3({(0, 2): np.inf, (2, 0): np.inf}), "Q must be finite"),
    "-inf and inf": (_q3({(1, 1): -np.inf, (0, 2): np.inf, (2, 0): np.inf}), "Q must be finite"),
    "nan, asymmetric": (_q3({(1, 2): np.nan, (0, 2): 1.0}), "Q must be finite"),
    "overflow, asymmetric": (_q3({(0, 2): 1.0}, 1e154), "Q must be exactly symmetric as stored"),
    "overflow": (_q3({}, 1e154), "|Q|_F overflows to inf; scale Q down")}


@pytest.mark.parametrize("bad", list(_BAD_Q))
@each_objective
def test_the_matrix_check_keeps_its_messages_and_their_order(make, bad):
    # |Q|_F is formed first and the entrywise pass runs only when it is not
    # finite; non-finite entries still come first, then symmetry, then overflow
    Q, message = _BAD_Q[bad]
    with pytest.raises(ValueError) as info:
        make(Q)
    assert str(info.value) == message


@each_objective
def test_objectives_reject_a_non_square_matrix(make):
    with pytest.raises(ValueError, match="square"):
        make(np.ones((2, 3)))


@pytest.mark.parametrize("N", [descending_diag(2), descending_diag(4), np.arange(3.0)],
                         ids=["small", "large", "vector"])
def test_brockett_rejects_a_wrong_size_N(N):
    with pytest.raises(ValueError, match="3-by-3"):
        BrockettObjective(np.eye(3), N)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_brockett_rejects_a_non_finite_N(bad):
    with pytest.raises(ValueError, match="finite"):
        BrockettObjective(np.eye(3), np.diag([3.0, bad, 1.0]))


def test_jacobi_with_an_infinite_entry_never_reaches_a_solve():
    # it used to run on NaN without raising
    with pytest.raises(ValueError, match="finite"):
        newton(JacobiObjective(np.diag([3.0, np.inf, 1.0])), np.eye(3))


def _draw(kind, n, rng):
    """Objective, point and unit tangent of the given kind."""
    Q = rand_sym(rng, n)
    if kind.startswith("rayleigh"):
        objective = RayleighObjective(Q, kind.split("-")[1])
        p = rand_unit(rng, n)
        return objective, p, rand_tangent(rng, p)
    objective = BrockettObjective(Q, descending_diag(n)) if kind == "brockett" else JacobiObjective(Q)
    X = rand_skew(rng, n)
    return objective, rand_rotation(rng, n), X / np.linalg.norm(X)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rayleigh-max", "rayleigh-min", "brockett", "jacobi"]),
       n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_gradient_and_hessian_match_geodesic_differences(kind, n, seed):
    # value, gradient and hessian_apply are what the solvers use, so the
    # sign and scale of each objective are checked together
    objective, p, u = _draw(kind, n, np.random.default_rng(seed))
    M = objective.manifold
    slope = geodesic_slope(objective.value, M, p, u)
    assert relative_error(M.inner(p, objective.gradient(p), u), slope) < FD_GRAD_TARGET
    curv = geodesic_curvature(objective.value, M, p, u)
    assert relative_error(M.inner(p, objective.hessian_apply(p, u), u), curv) < FD_HESS_TARGET
