import numpy as np
import pytest

from _oracles import axis_angle, rand_sym, rand_tangent, rand_unit
from riemopt import (
    RayleighObjective,
    SolverConfig,
    cg_extreme_eigen,
    newton,
    newton_rayleigh,
    rqi,
    sphere_log,
)
from riemopt.experiments import ExperimentSpec, run_fig1
from riemopt.sphere import _line_rotation


def diag_desc(n):
    return np.diag(np.arange(n, 0, -1.0))


def test_newton_rayleigh_matches_hand_rolled_steps():
    Q = np.diag([2.0, 1.0])
    t = 0.3
    x = np.array([np.cos(t), np.sin(t)])
    # one update computed straight from the update formulas
    rho = x @ Q @ x
    y = np.linalg.solve(Q - rho * np.eye(2), x)
    alpha = 1.0 / (x @ y)
    H = -x + alpha * y
    H = H - (x @ H) * x
    th = np.linalg.norm(H)
    x1_manual = x * np.cos(th) + (H / th) * np.sin(th)
    x1_manual /= np.linalg.norm(x1_manual)

    res = newton_rayleigh(Q, x, SolverConfig(max_iter=1))
    np.testing.assert_allclose(res.eigenvector, x1_manual, atol=1e-15)
    # the trace records the geodesic parameter; the arc length is |H|
    assert sphere_log(res.trace.points[0], res.trace.points[1])[1] == pytest.approx(th)


def test_newton_rayleigh_from_exact_eigenvector():
    Q = np.diag([3.0, 2.0, 1.0])
    x0 = np.array([1.0, 0.0, 0.0])
    res = newton_rayleigh(Q, x0)
    assert res.converged
    assert res.iterations == 0
    assert res.eigenvalue == 3.0


def test_newton_rayleigh_converges_to_top():
    n = 21
    Q = diag_desc(n)
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(0)
    u = rand_tangent(rng, axis)
    x0 = axis * np.cos(0.1) + u * np.sin(0.1)
    res = newton_rayleigh(Q, x0)
    assert res.converged
    assert abs(res.eigenvalue - 21.0) <= 1e-10
    assert axis_angle(res.eigenvector, axis) <= 1e-10
    for x in res.trace.points:
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_rqi_from_exact_eigenvector():
    Q = np.diag([3.0, 2.0, 1.0])
    res = rqi(Q, np.array([0.0, 1.0, 0.0]))
    assert res.converged
    assert res.iterations == 0
    assert res.eigenvalue == 2.0


def test_rqi_same_limit_as_newton_rayleigh():
    n = 21
    Q = diag_desc(n)
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(1)
    u = rand_tangent(rng, axis)
    x0 = axis * np.cos(0.2) + u * np.sin(0.2)
    r1 = newton_rayleigh(Q, x0)
    r2 = rqi(Q, x0)
    assert r1.converged and r2.converged
    assert abs(r1.eigenvalue - r2.eigenvalue) <= 1e-10
    assert axis_angle(r1.eigenvector, r2.eigenvector) <= 1e-8


def test_rqi_sign_convention():
    n = 10
    rng = np.random.default_rng(2)
    Q = rand_sym(rng, n)
    x0 = rand_unit(rng, n)
    res = rqi(Q, x0, SolverConfig(max_iter=30))
    pts = res.trace.points
    for a, b in zip(pts[:-1], pts[1:]):
        assert float(a @ b) > 0.0


def test_quadratic_agreement_of_next_iterates():
    n = 21
    Q = diag_desc(n)
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(3)
    psi0 = 1e-2
    u = rand_tangent(rng, axis)
    x0 = axis * np.cos(psi0) + u * np.sin(psi0)
    x_nr = newton_rayleigh(Q, x0, SolverConfig(max_iter=1)).eigenvector
    x_rq = rqi(Q, x0, SolverConfig(max_iter=1)).eigenvector
    assert axis_angle(x_nr, x_rq) <= 1e-3  # quadratic-order agreement


def test_cg_immediate_return_from_eigenvector():
    n = 6
    Q = diag_desc(n)
    x0 = np.zeros(n)
    x0[0] = 1.0
    res = cg_extreme_eigen(Q, x0)
    assert res.converged
    assert res.iterations == 0
    assert res.eigenvalue == pytest.approx(6.0)


def test_cg_top_eigenpair_and_fewer_iterations_than_ascent():
    from riemopt import RayleighObjective, steepest_descent

    n = 21
    Q = diag_desc(n)
    rng = np.random.default_rng(4)
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(grad_tol=1e-12, max_iter=2000)
    res = cg_extreme_eigen(Q, x0, cfg)
    assert res.converged
    assert abs(res.eigenvalue - 21.0) <= 1e-10
    ascent = steepest_descent(RayleighObjective(Q, which="max"), x0,
                              SolverConfig(line_search="exact", grad_tol=1e-12, max_iter=2000))
    assert res.iterations < ascent.iterations


def test_cg_rho_monotone_and_units():
    n = 13
    rng = np.random.default_rng(5)
    Q = rand_sym(rng, n)
    x0 = rand_unit(rng, n)
    res = cg_extreme_eigen(Q, x0, SolverConfig(max_iter=300))
    vals = np.asarray(res.trace.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))
    for x in res.trace.points:
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_cg_matches_dense_eigensolver():
    rng = np.random.default_rng(6)
    for n in (4, 10):
        Q = rand_sym(rng, n)
        w, V = np.linalg.eigh(Q)
        res = cg_extreme_eigen(Q, rand_unit(rng, n), SolverConfig(max_iter=500))
        assert res.converged
        assert abs(res.eigenvalue - w[-1]) <= 1e-8
        assert axis_angle(res.eigenvector, V[:, -1]) <= 1e-8


def test_cg_smallest_eigenpair():
    rng = np.random.default_rng(7)
    n = 8
    Q = rand_sym(rng, n)
    w, V = np.linalg.eigh(Q)
    res = cg_extreme_eigen(Q, rand_unit(rng, n), SolverConfig(max_iter=500), which="min")
    assert res.converged
    assert abs(res.eigenvalue - w[0]) <= 1e-8
    assert axis_angle(res.eigenvector, V[:, 0]) <= 1e-8


def test_eigenresidual_at_convergence():
    rng = np.random.default_rng(8)
    n = 12
    Q = rand_sym(rng, n)
    for solver in (newton_rayleigh, rqi):
        x0 = rand_unit(rng, n)
        res = solver(Q, x0, SolverConfig(max_iter=60))
        assert res.converged
        resid = np.linalg.norm(Q @ res.eigenvector - res.eigenvalue * res.eigenvector)
        assert resid <= 1e-10 * np.linalg.norm(Q)
        # the limit is an eigenpair of the dense solve
        w, V = np.linalg.eigh(Q)
        k = int(np.argmin(np.abs(w - res.eigenvalue)))
        assert abs(w[k] - res.eigenvalue) <= 1e-8
        assert axis_angle(res.eigenvector, V[:, k]) <= 1e-8


def test_rotation_coefficients_identities():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b = rng.normal(size=2) * 10.0
        c, s, v = _line_rotation(a, b)
        assert abs(c * c + s * s - 1.0) <= 1e-14
        assert abs(v - s * s / (1.0 + c)) == 0.0
        assert abs(v - (1.0 - c)) <= 1e-15


def test_max_iter_returns_unconverged():
    n = 21
    Q = diag_desc(n)
    rng = np.random.default_rng(10)
    res = cg_extreme_eigen(Q, rand_unit(rng, n), SolverConfig(max_iter=2))
    assert not res.converged
    assert res.iterations == 2
    # one verdict: the result reads its trace and holds no copy of it
    with pytest.raises(AttributeError):
        res.converged = True


def test_cg_rejects_nonsymmetric_matrix():
    Q = np.diag([3.0, 2.0, 1.0])
    Q[0, 1] = 1e-3
    with pytest.raises(ValueError):
        cg_extreme_eigen(Q, np.ones(3))


def _solve_to_an_eigenpair(method, Q, x0):
    if method == "newton":
        trace = newton(RayleighObjective(Q), x0, SolverConfig())
        x = trace.points[-1]
        return trace.converged, float(x @ Q @ x), x
    res = method(Q, x0, SolverConfig())
    return res.converged, res.eigenvalue, res.eigenvector


@pytest.mark.parametrize("n, seed", [(n, s) for n in (200, 250, 300) for s in range(3)]
                         + [(1000, 0)])
@pytest.mark.parametrize("method", [rqi, newton_rayleigh, "newton"],
                         ids=["rqi", "newton_rayleigh", "newton"])
def test_shift_drivers_at_the_benchmark_sizes(method, n, seed):
    # the benchmark's eigenpair targets, from a random start on a random Q
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    converged, rho, x = _solve_to_an_eigenpair(method, Q, rand_unit(rng, n))
    scale = np.linalg.norm(Q)
    assert converged
    assert np.linalg.norm(Q @ x - rho * x) <= 1e-10 * scale
    assert np.min(np.abs(np.linalg.eigvalsh(Q) - rho)) <= 1e-10 * scale


@pytest.mark.parametrize("driver", [rqi, newton_rayleigh, cg_extreme_eigen])
def test_drivers_reject_a_matrix_whose_norm_overflows(driver):
    # finite entries, but |Q|_F and every tolerance read from it are inf
    with pytest.raises(ValueError, match=r"\|Q\|_F"):
        driver(1e160 * diag_desc(3), np.ones(3))


@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("driver", [rqi, newton_rayleigh, cg_extreme_eigen])
def test_a_start_whose_norm_over_or_underflows_is_normalized(driver, scale):
    # |x0|^2 is inf or 0; dividing by max|x0| first gives the same bits
    # as the start of ordinary size
    x0 = np.array([1.0, 2.0, 2.0])
    res = driver(diag_desc(3), scale * x0)
    np.testing.assert_array_equal(res.trace.points[0], x0 / 3.0)
    np.testing.assert_array_equal(res.eigenvector, driver(diag_desc(3), x0).eigenvector)


@pytest.mark.parametrize("scale", [1e-150, 1e-145, 1e-140])
@pytest.mark.parametrize("driver", [rqi, newton_rayleigh])
def test_shift_drivers_on_a_tiny_matrix(driver, scale):
    # near an eigenvalue |y| for y = (Q - rho I)^{-1} x overflows though y is
    # finite; the iterate must stay a unit vector, and the Newton pivot test
    # must not read the overflow as a degenerate pivot
    for n in (5, 50):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            unit = rand_sym(rng, n)
            res = driver(scale * unit, rng.normal(size=n))
            x, rho = res.eigenvector, res.eigenvalue / scale
            assert res.converged
            assert abs(x @ x - 1.0) <= 1e-14
            assert np.linalg.norm(unit @ x - rho * x) <= 1e-10 * np.linalg.norm(unit)


# (method, seed) -> (iterations, final error, arc length of the step taken
# from the last but one row); the zero-length last rqi step is a row of its
# own.  rqi records that angle as its step; newton-rq records the geodesic
# parameter, so its arc length is read from the points.
_SHIFT_PINS = {
    ("rqi", 0): (3, 0.0, 0.0),
    ("rqi", 3): (3, 0.0, 0.0),
    ("newton-rq", 0): (3, 4.1359030627651384e-25, 5.9036160190249095e-09),
    ("newton-rq", 3): (3, 0.0, 4.6268335921344237e-09),
}


@pytest.mark.parametrize("method, seed", sorted(_SHIFT_PINS))
def test_shift_drivers_keep_every_row(method, seed):
    iterations, final_error, last_step = _SHIFT_PINS[method, seed]
    report, trace = run_fig1(ExperimentSpec("fig1", n=5, method=method, seed=seed))
    assert report.converged
    assert report.iterations == iterations
    assert report.final_error == pytest.approx(final_error, rel=1e-6, abs=1e-30)
    if method == "rqi":
        arc = trace.steps[-2]
    else:
        arc = sphere_log(trace.points[-2], trace.points[-1])[1]
    assert arc == pytest.approx(last_step, rel=1e-6, abs=1e-30)
    assert trace.steps[-1] == 0.0
