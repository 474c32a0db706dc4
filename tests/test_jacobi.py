import numpy as np
import pytest

from _oracles import (
    commutator,
    dense_skew_solve,
    fd_curvature,
    fd_slope,
    rand_rotation,
    rand_skew,
    rand_sym,
    skew_exp,
)
from riemopt import JacobiObjective, estimate_order, so_geodesic
from riemopt.rotation import conjugated_matrix, diag_part, off_diagonal_norm


def test_value_and_gradient_at_diagonal():
    Q = np.diag([3.0, 2.0, 1.0])
    obj = JacobiObjective(Q)
    assert obj.report_value(np.eye(3)) == pytest.approx(14.0)
    np.testing.assert_allclose(-obj.gradient(np.eye(3)), np.zeros((3, 3)))


def test_saddle_configuration():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    obj = JacobiObjective(Q)
    assert obj.report_value(np.eye(2)) == 0.0
    np.testing.assert_allclose(-obj.gradient(np.eye(2)), np.zeros((2, 2)))
    # finite differences agree that the slope vanishes in every direction
    E = np.array([[0.0, 1.0], [-1.0, 0.0]])
    slope = fd_slope(lambda t: obj.report_value(so_geodesic(np.eye(2), E, t)))
    assert abs(slope) <= 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    n = 4
    obj = JacobiObjective(rand_sym(rng, n))
    T = rand_rotation(rng, n)
    G = -obj.gradient(T)
    for _ in range(8):
        X = rand_skew(rng, n)
        X /= np.linalg.norm(X)
        slope = fd_slope(lambda t: obj.report_value(so_geodesic(T, X, t)))
        pairing = -np.trace(G @ X)
        assert abs(pairing - slope) <= 1e-6 * max(1.0, abs(slope), abs(pairing))


def test_hessian_matches_second_differences():
    rng = np.random.default_rng(1)
    n = 5
    obj = JacobiObjective(rand_sym(rng, n))
    T = rand_rotation(rng, n)
    for _ in range(6):
        X = rand_skew(rng, n)
        X /= np.linalg.norm(X)
        form = -np.trace((-obj.hessian_apply(T, X)) @ X)
        curv = fd_curvature(lambda t: obj.report_value(so_geodesic(T, X, t)))
        assert abs(form - curv) <= 1e-5 * max(1.0, abs(form), abs(curv))


def test_hessian_self_adjoint():
    rng = np.random.default_rng(2)
    n = 5
    obj = JacobiObjective(rand_sym(rng, n))
    T = rand_rotation(rng, n)
    for _ in range(10):
        X = rand_skew(rng, n)
        Y = rand_skew(rng, n)
        lhs = -np.trace((-obj.hessian_apply(T, X)) @ Y)
        rhs = -np.trace((-obj.hessian_apply(T, Y)) @ X)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_hessian_form_nonpositive_at_diagonal():
    rng = np.random.default_rng(3)
    n = 5
    obj = JacobiObjective(np.diag(np.arange(n, 0, -1.0)))
    for _ in range(10):
        X = rand_skew(rng, n)
        form = -np.trace((-obj.hessian_apply(np.eye(n), X)) @ X)
        assert form <= 1e-12


def test_newton_direction_zero_at_diagonal():
    obj = JacobiObjective(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(obj.newton_direction(np.eye(3)), np.zeros((3, 3)))


def test_newton_solver_zero_iterations_from_diagonal_start():
    from riemopt import newton

    obj = JacobiObjective(np.diag([3.0, 1.0, 2.0]))
    trace = newton(obj, np.eye(3))
    assert trace.iterations == 0


def test_newton_direction_matches_dense_solve():
    rng = np.random.default_rng(4)
    n = 3
    D = np.diag([4.0, 2.0, 1.0])
    X0 = rand_skew(rng, n)
    X0 /= np.linalg.norm(X0)
    T = skew_exp(X0, 5e-2)
    obj = JacobiObjective(D)
    X = obj.newton_direction(T)
    H = conjugated_matrix(obj.Q, T)
    P = diag_part(H)

    def M(Z):
        adZH = commutator(Z, H)
        return (commutator(H, commutator(Z, P)) - commutator(adZH, P)
                - 2.0 * commutator(H, diag_part(adZH)))

    want = dense_skew_solve(M, -2.0 * commutator(H, P))
    assert np.linalg.norm(X - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_newton_equation_residual():
    rng = np.random.default_rng(5)
    n = 5
    D = np.diag(np.arange(n, 0, -1.0))
    X0 = rand_skew(rng, n)
    X0 /= np.linalg.norm(X0)
    T = skew_exp(X0, 1e-1)
    obj = JacobiObjective(D)
    X = obj.newton_direction(T)
    H = conjugated_matrix(obj.Q, T)
    P = diag_part(H)
    adXH = commutator(X, H)
    MX = (commutator(H, commutator(X, P)) - commutator(adXH, P)
          - 2.0 * commutator(H, diag_part(adXH)))
    rhs = -2.0 * commutator(H, P)
    assert np.linalg.norm(MX - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_newton_iteration_cubic_order():
    rng = np.random.default_rng(6)
    n = 5
    D = np.diag(np.arange(n, 0, -1.0))
    obj = JacobiObjective(D)
    X0 = rand_skew(rng, n)
    X0 /= np.linalg.norm(X0)
    T = skew_exp(X0, 0.3)
    errs = []
    for _ in range(8):
        off = off_diagonal_norm(conjugated_matrix(obj.Q, T))
        errs.append(off)
        if off < 1e-14:
            break
        X = obj.newton_direction(T)
        T = so_geodesic(T, X, 1.0)
    rep = estimate_order(errs)
    assert rep.order >= 2.5
    assert errs[-1] < 1e-11


def test_objective_adapter():
    rng = np.random.default_rng(7)
    n = 4
    Q = rand_sym(rng, n)
    obj = JacobiObjective(Q)
    T = rand_rotation(rng, n)
    H = conjugated_matrix(Q, T)
    assert obj.value(T) == -obj.report_value(T)
    assert obj.report_value(T) == float(np.sum(np.diag(H) ** 2))
    assert obj.error_metric(T) == pytest.approx(off_diagonal_norm(H))
    # maximizing tr(H pi(H)) minimizes off-diagonal mass: |H|^2 is constant
    total = np.linalg.norm(H) ** 2
    assert total == pytest.approx(np.linalg.norm(Q) ** 2, rel=1e-10)
    assert obj.report_value(T) + off_diagonal_norm(H) ** 2 == pytest.approx(total, rel=1e-10)
