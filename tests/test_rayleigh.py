import numpy as np
import pytest

from _oracles import (
    circle_scan_max,
    fd_curvature,
    fd_slope,
    rand_sym,
    rand_tangent,
    rand_unit,
    SingularMatrix,
    solve_projected_linear,
)
from riemopt import (
    RayleighObjective,
    rayleigh_line_max,
    rayleigh_newton_step,
    sphere_exp,
    sphere_transport,
)
from riemopt.errors import NotTangent, StepDeclined, ZeroTangent


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_problem_requires_exact_symmetry():
    A = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
    with pytest.raises(ValueError):
        RayleighObjective(A, "min")


def test_problem_rejects_an_unknown_which():
    with pytest.raises(ValueError, match="which must be 'max' or 'min'"):
        RayleighObjective(np.eye(3), which="mid")


def test_value_at_eigenvector():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    assert obj.report_value(e(2, 0)) == 2.0


def test_value_mixed():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    assert obj.report_value(x) == pytest.approx(1.5)


def test_value_top_eigenvector_large():
    n = 21
    obj = RayleighObjective(np.diag(np.arange(n, 0, -1.0)), "min")
    assert obj.report_value(e(n, 0)) == 21.0


def test_value_range():
    rng = np.random.default_rng(0)
    Q = rand_sym(rng, 8)
    w = np.linalg.eigvalsh(Q)
    obj = RayleighObjective(Q, "min")
    for _ in range(20):
        x = rand_unit(rng, 8)
        val = obj.report_value(x)
        assert w[0] - 1e-12 <= val <= w[-1] + 1e-12


def test_gradient_zero_at_eigenvector():
    obj = RayleighObjective(np.diag([3.0, 2.0, 1.0]), "min")
    np.testing.assert_allclose(obj.gradient(e(3, 1)), np.zeros(3), atol=1e-15)


def test_gradient_explicit_value():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(obj.gradient(x),
                               np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    obj = RayleighObjective(rand_sym(rng, 8), "min")
    x = rand_unit(rng, 8)
    g = obj.gradient(x)
    for _ in range(8):
        u = rand_tangent(rng, x)
        slope = fd_slope(lambda t: obj.report_value(sphere_exp(x, u, t)))
        assert abs((g @ u) - slope) <= 1e-6 * max(1.0, abs(slope))


def test_gradient_directional_consistency_many():
    rng = np.random.default_rng(2)
    obj = RayleighObjective(rand_sym(rng, 6), "min")
    for _ in range(20):
        x = rand_unit(rng, 6)
        u = rand_tangent(rng, x)
        g = obj.gradient(x)
        slope = fd_slope(lambda t: obj.report_value(sphere_exp(x, u, t)))
        assert abs((g @ u) - slope) <= 1e-6 * max(1.0, abs(slope), abs(g @ u))


def test_hessian_negative_definite_at_top_eigenvector():
    rng = np.random.default_rng(3)
    n = 6
    Q = rand_sym(rng, n)
    w, V = np.linalg.eigh(Q)
    obj = RayleighObjective(Q, "min")
    x = V[:, -1]
    for _ in range(10):
        u = rand_tangent(rng, x)
        form = float(obj.hessian_apply(x, u) @ u)
        assert form < 0.0


def test_hessian_explicit_small_case():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    x = e(2, 1)
    u = e(2, 0)
    out = obj.hessian_apply(x, u)
    np.testing.assert_allclose(out, 2.0 * e(2, 0), atol=1e-14)
    curv = fd_curvature(lambda t: obj.report_value(sphere_exp(x, u, t)))
    assert abs(float(out @ u) - curv) <= 1e-5 * max(1.0, abs(curv))


def test_hessian_matches_second_differences():
    rng = np.random.default_rng(4)
    obj = RayleighObjective(rand_sym(rng, 7), "min")
    x = rand_unit(rng, 7)
    for _ in range(8):
        u = rand_tangent(rng, x)
        form = float(obj.hessian_apply(x, u) @ u)
        curv = fd_curvature(lambda t: obj.report_value(sphere_exp(x, u, t)))
        assert abs(form - curv) <= 1e-5 * max(1.0, abs(form), abs(curv))


def test_hessian_form_symmetry():
    rng = np.random.default_rng(5)
    obj = RayleighObjective(rand_sym(rng, 6), "min")
    x = rand_unit(rng, 6)
    u = rand_tangent(rng, x, unit=False)
    w = rand_tangent(rng, x, unit=False)
    fuw = float(obj.hessian_apply(x, u) @ w)
    fwu = float(obj.hessian_apply(x, w) @ u)
    assert fuw == pytest.approx(fwu, rel=1e-12, abs=1e-12)


def test_hessian_rejects_nontangent():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    with pytest.raises(NotTangent):
        obj.hessian_apply(e(2, 0), e(2, 0))


def test_critical_point_spectrum():
    # at an eigenvector the half-Hessian is Q - lambda I on the tangent plane
    rng = np.random.default_rng(6)
    Q = rand_sym(rng, 5)
    w, V = np.linalg.eigh(Q)
    obj = RayleighObjective(Q, "min")
    k = 2
    x = V[:, k]
    np.testing.assert_allclose(obj.gradient(x), np.zeros(5), atol=1e-12)
    for j in range(5):
        if j == k:
            continue
        u = V[:, j]
        form = float(obj.hessian_apply(x, u) @ u)
        assert form == pytest.approx(2.0 * (w[j] - w[k]), rel=1e-10, abs=1e-10)


def test_solve_projected_identity():
    rng = np.random.default_rng(7)
    x = rand_unit(rng, 5)
    v = rand_tangent(rng, x, unit=False)
    np.testing.assert_allclose(solve_projected_linear(np.eye(5), x, v), v, atol=1e-12)


def test_solve_projected_small_case():
    A = np.diag([2.0, 1.0, 1.0])
    x = e(3, 2)
    v = e(3, 0)
    u = solve_projected_linear(A, x, v)
    np.testing.assert_allclose(u, 0.5 * e(3, 0), atol=1e-14)


def test_solve_projected_residual_random():
    rng = np.random.default_rng(8)
    n = 6
    A = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    x = rand_unit(rng, n)
    v = rand_tangent(rng, x, unit=False)
    u = solve_projected_linear(A, x, v)
    assert abs(x @ u) <= 1e-12 * np.linalg.norm(u)
    resid = (A @ u - x * (x @ (A @ u))) - v
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)


def test_solve_projected_errors():
    n = 4
    with pytest.raises(SingularMatrix):
        solve_projected_linear(np.zeros((n, n)), e(n, 0), e(n, 1))
    # pivot x^T A^{-1} x = 0 for an off-diagonal exchange matrix
    A = np.zeros((2, 2))
    A[0, 1] = A[1, 0] = 1.0
    with pytest.raises(StepDeclined, match="too small"):
        solve_projected_linear(A, e(2, 0), e(2, 1))


def test_newton_step_at_eigenvector_is_singular():
    # the shift is exactly singular; the step from its null vector is zero
    step = rayleigh_newton_step(np.diag([2.0, 1.0]), e(2, 0))
    np.testing.assert_array_equal(step, np.zeros(2))


def test_singular_shift_carries_the_last_step():
    # rho rounds to 2 exactly: the shift is singular, the step is not zero
    x = np.array([np.cos(1e-9), np.sin(1e-9)])
    step = rayleigh_newton_step(np.diag([2.0, 1.0]), x)
    assert abs(float(x @ step)) <= 1e-25
    np.testing.assert_allclose(sphere_exp(x, step), e(2, 0), atol=1e-15)


def test_newton_step_taken_at_a_small_but_sound_pivot():
    # Q = diag(1, -1) and cos 2 theta = 5e-14 give rho = 5e-14 and
    # |x^T y| / |y| = 1.0e-13: ten times the degenerate-pivot threshold,
    # so the step is taken, huge as it is
    theta = 0.5 * np.arccos(5e-14)
    x = np.array([np.cos(theta), np.sin(theta)])
    step = rayleigh_newton_step(np.diag([1.0, -1.0]), x)
    assert np.all(np.isfinite(step))
    np.testing.assert_allclose(np.abs(step), 7.06e12, rtol=1e-3)


def test_newton_step_matches_projected_solve():
    obj = RayleighObjective(np.diag([2.0, 1.0]), "min")
    eps = 0.1
    x = np.array([np.cos(eps), np.sin(eps)])
    H = rayleigh_newton_step(obj.Q, x)
    rho = obj.report_value(x)
    # Hessian equation: 2(I-xx^T)(Q - rho I) H = -grad
    u = solve_projected_linear(2.0 * (obj.Q - rho * np.eye(2)), x,
                               -obj.gradient(x))
    np.testing.assert_allclose(H, u, atol=1e-12)


def test_newton_residual_random():
    rng = np.random.default_rng(9)
    n = 10
    Q = rand_sym(rng, n)
    w, V = np.linalg.eigh(Q)
    obj = RayleighObjective(Q, "min")
    x = V[:, -1] * np.cos(0.05) + rand_tangent(rng, V[:, -1]) * np.sin(0.05)
    H = rayleigh_newton_step(Q, x)
    g = obj.gradient(x)
    resid = obj.hessian_apply(x, H) + g
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(g)


def test_newton_cubic_contraction():
    # error after one Newton step decays like the cube of the start error
    rng = np.random.default_rng(10)
    n = 10
    Q = rand_sym(rng, n) + np.diag(np.arange(n, 0, -1.0)) * 2
    Q = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(Q)
    top = V[:, -1]
    u = rand_tangent(rng, top)
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        x = top * np.cos(eps) + u * np.sin(eps)
        H = rayleigh_newton_step(Q, x)
        y = sphere_exp(x, H, 1.0)
        err = min(np.linalg.norm(y - top), np.linalg.norm(y + top))
        ratios.append(err / eps ** 3)
    # cubic decay: the normalized ratios stay within a mild band
    assert max(ratios) <= 50.0 * max(min(ratios), 1e-12)


def test_line_max_small_case():
    c, s, v = rayleigh_line_max(np.diag([2.0, 1.0]), e(2, 1), e(2, 0))
    assert (c, s) == pytest.approx((0.0, 1.0), abs=1e-15)
    assert v == pytest.approx(1.0)


def test_line_max_stationary_at_optimum():
    c, s, v = rayleigh_line_max(np.diag([2.0, 1.0, 0.5]), e(3, 0), e(3, 1))
    assert c == pytest.approx(1.0)
    assert s == pytest.approx(0.0, abs=1e-15)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_line_max_degenerate_circle():
    c, s, v = rayleigh_line_max(np.eye(3), e(3, 0), e(3, 1))
    assert (c, s, v) == (1.0, 0.0, 0.0)


def test_line_step_along_a_zero_direction_is_rejected():
    objective = RayleighObjective(np.diag([2.0, 1.0, 0.5]))
    with pytest.raises(ZeroTangent, match="line search direction is zero"):
        objective.exact_line_step(e(3, 0), np.zeros(3))


def test_line_max_identities_and_scan():
    rng = np.random.default_rng(11)
    n = 7
    Q = rand_sym(rng, n)
    for _ in range(10):
        x = rand_unit(rng, n)
        h = rand_tangent(rng, x)
        c, s, v = rayleigh_line_max(Q, x, h)
        assert abs(c * c + s * s - 1.0) <= 1e-14
        assert v == pytest.approx(1.0 - c, abs=1e-14)
        t_cf = np.arctan2(s, c) % np.pi

        qx, qh = Q @ x, Q @ h
        rho_x, rho_h, cross = x @ qx, h @ qh, x @ qh

        def rho_t(ts):
            return (rho_x * np.cos(ts) ** 2 + 2 * cross * np.sin(ts) * np.cos(ts)
                    + rho_h * np.sin(ts) ** 2)

        t_scan = circle_scan_max(rho_t)
        diff = abs(t_cf - t_scan)
        diff = min(diff, np.pi - diff)
        assert diff <= 1e-5


def test_objective_adapter_signs():
    rng = np.random.default_rng(12)
    Q = rand_sym(rng, 5)
    x = rand_unit(rng, 5)
    omax = RayleighObjective(Q, which="max")
    omin = RayleighObjective(Q, which="min")
    rho = float(x @ Q @ x)
    assert omax.value(x) == -rho
    assert omax.report_value(x) == rho
    assert omin.value(x) == rho
    np.testing.assert_allclose(omax.gradient(x), -omin.gradient(x))
    # exact line step lands on a stationary point of the restricted function
    h = rand_tangent(rng, x)
    t = omax.exact_line_step(x, h)
    y = sphere_exp(x, h, t)
    g = omin.gradient(y)
    tau_h = sphere_transport(x, h, t, h)
    assert abs(g @ tau_h) <= 1e-9 * max(1.0, np.linalg.norm(g))
