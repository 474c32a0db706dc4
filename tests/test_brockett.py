import numpy as np
import pytest

from _oracles import (
    dense_skew_solve,
    fd_curvature,
    fd_slope,
    fd_third_mixed,
    rand_rotation,
    rand_skew,
    rand_sym,
    skew_exp,
)
from riemopt import BrockettObjective, brockett_third_component, so_geodesic
from riemopt.errors import StepDeclined
from riemopt.rotation import commutator, conjugated_matrix


def descending_diag(n):
    return np.diag(np.arange(n, 0, -1.0))


def test_problem_validation():
    with pytest.raises(ValueError):
        BrockettObjective(np.array([[1.0, 0.1], [0.0, 1.0]]), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        BrockettObjective(np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        BrockettObjective(np.eye(2), np.diag([1.0, 1.0]))


def test_value_small_case():
    obj = BrockettObjective(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert obj.report_value(np.eye(2)) == pytest.approx(4.0)


def test_value_small_case_maximum():
    obj = BrockettObjective(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert obj.report_value(quarter) == pytest.approx(5.0)
    # brute-force scan over the rotation angle confirms 5 is the max
    angles = np.linspace(0.0, 2 * np.pi, 20001)
    best = max(obj.report_value(np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]))
               for a in angles)
    assert best <= 5.0 + 1e-9


def test_value_sorted_alignment_maximum_n20():
    n = 20
    rng = np.random.default_rng(0)
    lam = np.arange(n, 0, -1.0)
    V = rand_rotation(rng, n)
    Q = V @ np.diag(lam) @ V.T
    Q = 0.5 * (Q + Q.T)
    N = descending_diag(n)
    obj = BrockettObjective(Q, N)
    w, U = np.linalg.eigh(Q)
    T_hat = U[:, np.argsort(w)[::-1]]
    if np.linalg.det(T_hat) < 0:
        T_hat[:, -1] = -T_hat[:, -1]
    want = float(np.sort(np.linalg.eigvalsh(Q))[::-1] @ np.diag(N))
    assert obj.report_value(T_hat) == pytest.approx(want, rel=1e-12)
    # no nearby rotation does better
    for _ in range(20):
        X = rand_skew(rng, n)
        X /= np.linalg.norm(X)
        T = so_geodesic(T_hat, X, 1e-3)
        assert obj.report_value(T) <= want + 1e-12


def test_value_conjugation_invariance():
    rng = np.random.default_rng(1)
    n = 5
    obj = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    T0 = rand_rotation(rng, n)
    T = rand_rotation(rng, n)
    obj2 = BrockettObjective(0.5 * ((T0 @ obj.Q @ T0.T) + (T0 @ obj.Q @ T0.T).T), obj.N)
    assert obj2.report_value(T0 @ T) == pytest.approx(obj.report_value(T), rel=1e-10)


def test_gradient_zero_iff_diagonal():
    n = 4
    obj = BrockettObjective(descending_diag(n) * 1.5, descending_diag(n))
    np.testing.assert_allclose(-obj.gradient(np.eye(n)), np.zeros((n, n)))
    rng = np.random.default_rng(2)
    T = rand_rotation(rng, n)
    assert np.linalg.norm(-obj.gradient(T)) > 1e-6


def test_gradient_two_by_two_commutator():
    h11, h12, h22 = 1.3, -0.4, 2.2
    nu1, nu2 = 3.0, 1.0
    Q = np.array([[h11, h12], [h12, h22]])
    obj = BrockettObjective(Q, np.diag([nu1, nu2]))
    G = -obj.gradient(np.eye(2))
    assert G[0, 1] == pytest.approx(h12 * (nu2 - nu1), rel=1e-14)
    assert G[1, 0] == pytest.approx(-G[0, 1])
    # cross-check against a finite difference of f along the geodesic
    E = np.array([[0.0, 1.0], [-1.0, 0.0]])
    slope = fd_slope(lambda t: obj.report_value(so_geodesic(np.eye(2), E, t)))
    assert -np.trace(G @ E) == pytest.approx(slope, rel=1e-6)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 6
    obj = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    T = rand_rotation(rng, n)
    G = -obj.gradient(T)
    for _ in range(8):
        X = rand_skew(rng, n)
        X /= np.linalg.norm(X)
        slope = fd_slope(lambda t: obj.report_value(so_geodesic(T, X, t)))
        pairing = -np.trace(G @ X)
        assert abs(pairing - slope) <= 1e-6 * max(1.0, abs(slope), abs(pairing))


def test_step_estimate_errors():
    n = 4
    obj = BrockettObjective(descending_diag(n) * 2.0, descending_diag(n))
    rng = np.random.default_rng(4)
    T = rand_rotation(rng, n)
    H = conjugated_matrix(obj.Q, T)
    G = commutator(H, obj.N)
    with pytest.raises(StepDeclined, match=r"phi'\(0\) = .* is not positive"):
        obj.step_estimate(T, -G)
    # commuting direction with positive slope: N itself commutes with N
    obj2 = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    Omega = commutator(obj2.N, np.diag(np.arange(n) ** 2.0))  # zero matrix
    assert np.linalg.norm(Omega) == 0.0
    with pytest.raises(StepDeclined, match=r"phi'\(0\) = 0.0 is not positive"):
        obj2.step_estimate(T, Omega)
    # a skew Omega that commutes with H or N has phi'(0) = 0, so the bound's
    # denominator alone vanishes only off the algebra: here a diagonal Omega
    # at T = I, which commutes with the diagonal H and N
    obj3 = BrockettObjective(np.diag([3.0, 2.0, 1.0, 0.5]), descending_diag(n))
    with pytest.raises(StepDeclined, match="commutator norms vanish"):
        obj3.step_estimate(np.eye(n), np.eye(n))


def test_step_estimate_monotone_two_by_two():
    obj = BrockettObjective(np.array([[1.0, 0.7], [0.7, 2.0]]), np.diag([2.0, 1.0]))
    T = np.eye(2)
    Om = -obj.gradient(T)
    t_est = obj.step_estimate(T, Om)
    ts = np.linspace(0.0, t_est, 1000)
    vals = np.array([obj.report_value(so_geodesic(T, Om, t)) for t in ts])
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))


def test_step_estimate_monotone_random():
    rng = np.random.default_rng(5)
    n = 6
    obj = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    T = rand_rotation(rng, n)
    Om = -obj.gradient(T)
    t_est = obj.step_estimate(T, Om)
    ts = np.linspace(0.0, t_est, 1000)
    vals = np.array([obj.report_value(so_geodesic(T, Om, t)) for t in ts])
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))


def test_hessian_zero_on_bicommuting_direction():
    # with N distinct the only skew matrix commuting with both H and N is 0
    n = 4
    obj = BrockettObjective(2.0 * descending_diag(n), descending_diag(n))
    out = -2 * obj.hessian_apply(np.eye(n), np.zeros((n, n)))
    np.testing.assert_allclose(out, np.zeros((n, n)))


def test_hessian_matches_second_differences():
    rng = np.random.default_rng(7)
    n = 5
    obj = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    T = rand_rotation(rng, n)
    for _ in range(6):
        X = rand_skew(rng, n)
        X /= np.linalg.norm(X)
        form = -0.5 * np.trace((-2 * obj.hessian_apply(T, X)) @ X)
        curv = fd_curvature(lambda t: obj.report_value(so_geodesic(T, X, t)))
        assert abs(form - curv) <= 1e-5 * max(1.0, abs(form), abs(curv))


def test_hessian_negative_semidefinite_form_at_maximizer():
    rng = np.random.default_rng(8)
    n = 5
    obj = BrockettObjective(3.0 * descending_diag(n), descending_diag(n))
    for _ in range(10):
        X = rand_skew(rng, n)
        form = -0.5 * np.trace((-2 * obj.hessian_apply(np.eye(n), X)) @ X)
        assert form <= 1e-12


def test_hessian_self_adjoint():
    rng = np.random.default_rng(9)
    n = 5
    obj = BrockettObjective(rand_sym(rng, n), descending_diag(n))
    T = rand_rotation(rng, n)
    for _ in range(10):
        X = rand_skew(rng, n)
        Y = rand_skew(rng, n)
        lhs = -np.trace((-2 * obj.hessian_apply(T, X)) @ Y)
        rhs = -np.trace((-2 * obj.hessian_apply(T, Y)) @ X)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_newton_direction_zero_at_critical_point():
    n = 4
    obj = BrockettObjective(2.0 * descending_diag(n), descending_diag(n))
    X = obj.newton_direction(np.eye(n))
    np.testing.assert_allclose(X, np.zeros((n, n)))


def test_newton_direction_matches_dense_solve_n2():
    obj = BrockettObjective(np.array([[2.0, 0.05], [0.05, 1.0]]), np.diag([2.0, 1.0]))
    T = np.eye(2)
    X = obj.newton_direction(T)
    H = conjugated_matrix(obj.Q, T)

    def L(Z):
        return commutator(H, commutator(Z, obj.N)) - commutator(commutator(Z, H), obj.N)

    want = dense_skew_solve(L, -2.0 * commutator(H, obj.N))
    np.testing.assert_allclose(X, want, atol=1e-12)


def test_newton_direction_matches_dense_solve_n5():
    rng = np.random.default_rng(10)
    n = 5
    D = descending_diag(n)
    X0 = rand_skew(rng, n)
    X0 /= np.linalg.norm(X0)
    T = skew_exp(X0, 1e-2)  # near the maximizer of Q = D
    obj = BrockettObjective(D, descending_diag(n))
    X = obj.newton_direction(T)
    H = conjugated_matrix(obj.Q, T)

    def L(Z):
        return commutator(H, commutator(Z, obj.N)) - commutator(commutator(Z, H), obj.N)

    want = dense_skew_solve(L, -2.0 * commutator(H, obj.N))
    rhs_norm = np.linalg.norm(2.0 * commutator(H, obj.N))
    assert np.linalg.norm(X - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
    # Newton equation residual: L(X) = -2 [H, N]
    assert np.linalg.norm(L(X) + 2.0 * commutator(H, obj.N)) <= 1e-10 * rhs_norm


def test_newton_direction_satisfies_objective_equation():
    rng = np.random.default_rng(11)
    n = 5
    obj = BrockettObjective(2.0 * descending_diag(n), descending_diag(n))
    X0 = rand_skew(rng, n)
    X0 /= np.linalg.norm(X0)
    T = skew_exp(X0, 5e-2)
    X = obj.newton_direction(T)
    resid = obj.hessian_apply(T, X) + obj.gradient(T)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(obj.gradient(T))


def test_third_component_vanishes_on_proportional():
    rng = np.random.default_rng(12)
    n = 5
    for _ in range(100):
        alpha = rng.normal()
        nu = rng.normal(size=n)
        X = rand_skew(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        val = brockett_third_component(alpha * nu, nu, X, int(i), int(j))
        assert abs(val) <= 1e-14


def test_third_component_direct_sum_n3():
    h = np.array([1.0, 2.0, 4.0])
    nu = np.array([3.0, 2.0, 1.0])
    X = np.zeros((3, 3))
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        X[i, j] = 1.0
        X[j, i] = -1.0
    # only k = 2 contributes for the (0, 1) component
    k = 2
    expect = -2.0 * X[0, k] * X[1, k] * (
        (h[0] * nu[1] - h[1] * nu[0]) + (h[1] * nu[k] - h[k] * nu[1]) + (h[k] * nu[0] - h[0] * nu[k]))
    assert brockett_third_component(h, nu, X, 0, 1) == pytest.approx(expect, rel=1e-14)


def test_third_component_matches_finite_differences():
    rng = np.random.default_rng(13)
    n = 5
    h = rng.normal(size=n) * 3.0
    nu = np.arange(n, 0, -1.0)
    Hd = np.diag(h)
    Nd = np.diag(nu)
    X = rand_skew(rng, n)
    obj = BrockettObjective(Hd, Nd)  # T = I gives H = diag(h) exactly

    i, j = 0, 2
    E = np.zeros((n, n))
    E[i, j] = 1.0
    E[j, i] = -1.0

    def g(s, t):
        return obj.report_value(skew_exp(s * E + t * X))

    want = fd_third_mixed(g)
    got = brockett_third_component(h, nu, X, i, j)
    assert abs(got - want) <= 1e-4 * max(1.0, abs(got))
