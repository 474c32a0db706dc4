import numpy as np
import pytest
from scipy.linalg import lapack

import riemopt.eigensolvers

from _oracles import axis_angle, rand_sym, rand_tangent, rand_unit, recording, tridiagonal_quotient
from riemopt import (
    RayleighObjective,
    SolverConfig,
    cg_extreme_eigen,
    newton,
    newton_rayleigh,
    rqi,
    sphere_distance,
    sphere_exp,
    sphere_log,
)
from riemopt.errors import Diverged
from riemopt import experiments
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
    record, points = recording()
    res = newton_rayleigh(Q, x0, error_fn=record)
    assert res.converged
    assert abs(res.eigenvalue - 21.0) <= 1e-10
    assert axis_angle(res.eigenvector, axis) <= 1e-10
    for x in points:
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
    record, pts = recording()
    rqi(Q, x0, SolverConfig(max_iter=30), error_fn=record)
    for a, b in zip(pts[:-1], pts[1:]):
        assert float(a @ b) > 0.0


def test_rqi_raises_diverged_after_five_growths(monkeypatch):
    # a shift solve that doubles the angle of diag(n..1)'s iterate from e1
    # toward (e1 + en)/sqrt 2, where the gradient norm (n-1) sin(2 theta)
    # grows at every step: rqi runs on newton's loop and shares its guard
    n = 6

    def walk(objective, rho, x):
        theta = min(2.0 * np.arctan2(x[-1], x[0]), np.pi / 4)
        y = np.zeros(n)
        y[0], y[-1] = np.cos(theta), np.sin(theta)
        return 3.0 * y

    monkeypatch.setattr(riemopt.eigensolvers, "_shift_solve", walk)
    x0 = np.zeros(n)
    x0[0], x0[-1] = np.cos(1e-3), np.sin(1e-3)
    with pytest.raises(Diverged) as info:
        rqi(diag_desc(n), x0, SolverConfig(max_iter=50))
    trace = info.value.trace
    assert trace.iterations == 5
    assert np.all(np.diff(trace.grad_norms) > 0.0)
    assert not trace.converged


def test_diverged_rqi_carries_points_in_the_original_basis(monkeypatch):
    # rqi steps on the tridiagonal T of Q = P T P^T; a shift solve that
    # doubles the angle of T's iterate from T's top eigenvector toward its
    # bottom one grows the gradient norm at every step, and the Diverged it
    # raises carries the points P z (every one recorded by a caller's
    # error_fn, which a first run passes), with the loop's rho and residual
    # on T, the last residual the dense one on P z, each within round-off of
    # the dense formulas on P z
    n = 6
    Q = rand_sym(np.random.default_rng(6), n)
    V, tau, d, e = RayleighObjective(Q)._reduction()
    u = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[1]
    seen = []

    def walk(objective, rho, z):
        seen.append(z)
        theta = min(2.0 * np.arctan2(z @ u[:, 0], z @ u[:, -1]), np.pi / 4)
        return 3.0 * (np.cos(theta) * u[:, -1] + np.sin(theta) * u[:, 0])

    def back(z):
        p = z.copy()
        p[1:] = lapack.dormqr("L", "N", V, tau, p[1:], 1)[0]
        return p

    monkeypatch.setattr(riemopt.eigensolvers, "_shift_solve", walk)
    record, points = recording()
    for error_fn in (record, None):
        seen.clear()
        with pytest.raises(Diverged) as info:
            rqi(Q, back(np.cos(1e-3) * u[:, -1] + np.sin(1e-3) * u[:, 0]),
                SolverConfig(max_iter=50), error_fn=error_fn)
    trace = info.value.trace
    assert trace.iterations == 5
    assert np.all(np.diff(trace.grad_norms) > 0.0)
    assert len(points) == len(trace)
    np.testing.assert_array_equal(trace.points, [points[0], points[-1]])
    for z, p in zip(seen, points):
        assert not np.allclose(z, p, atol=1e-3)
        np.testing.assert_allclose(p, back(z), rtol=0.0, atol=1e-15)
    on_T = [tridiagonal_quotient(d, e, z) for z in seen]
    assert trace.values[:-1] == [rho for rho, _ in on_T]
    assert trace.errors[:-1] == [residual for _, residual in on_T]
    dense = [(float(p @ (Q @ p)), float(np.linalg.norm(Q @ p - (p @ (Q @ p)) * p)))
             for p in points]
    assert trace.errors[-1] == dense[-1][1]
    bound = 4.0 * np.sqrt(n) * np.finfo(float).eps * np.linalg.norm(Q)
    np.testing.assert_allclose(trace.values, [rho for rho, _ in dense], rtol=0.0, atol=bound)
    np.testing.assert_allclose(trace.errors, [r for _, r in dense], rtol=0.0, atol=bound)


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


@pytest.mark.parametrize("n", [10, 100])
@pytest.mark.parametrize("theta", [1e-1, 1e-2, 1e-3])
def test_rqi_approximates_newton_to_third_order(n, theta):
    # the paper: RQI "is an efficient approximation of Newton's method".
    # For Newton's direction H at x, x + H = y / (x^T y), so the RQI iterate
    # is the projective retraction (x + H) / |x + H|, at angle arctan|H|
    # along the great circle on which Newton's exp_x(H) lies at angle |H|
    rng = np.random.default_rng(n)
    Q = rand_sym(rng, n)
    v = np.linalg.eigh(Q)[1][:, 1]
    x0 = v * np.cos(theta) + rand_tangent(rng, v) * np.sin(theta)
    trace = rqi(Q, x0, SolverConfig(max_iter=1)).trace
    x, x_rqi = trace.points
    H = RayleighObjective(Q).newton_direction(x)
    gap = sphere_distance(sphere_exp(x, H), x_rqi)
    nH = np.linalg.norm(H)
    assert gap == pytest.approx(nH - np.arctan(nH), rel=1e-6)
    assert gap <= theta ** 3


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


@pytest.mark.parametrize("which", ["max", "min"])
def test_cg_resets_every_manifold_dimension_steps(which):
    # conjugate_gradient's own default period, dim S^{n-1} = n - 1
    n = 12
    rng = np.random.default_rng(8)
    Q, x0 = rand_sym(rng, n), rand_unit(rng, n)
    res = cg_extreme_eigen(Q, x0, which=which)
    pinned = cg_extreme_eigen(Q, x0, SolverConfig(reset_period=n - 1), which=which)
    assert res.iterations > n
    for field in ("values", "grad_norms", "errors", "steps"):
        assert getattr(res.trace, field) == getattr(pinned.trace, field)


def test_cg_rho_monotone_and_units():
    n = 13
    rng = np.random.default_rng(5)
    Q = rand_sym(rng, n)
    x0 = rand_unit(rng, n)
    record, points = recording()
    res = cg_extreme_eigen(Q, x0, SolverConfig(max_iter=300), error_fn=record)
    vals = np.asarray(res.trace.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))
    for x in points:
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
# from the last but one row, read from the points).  rqi records that arc
# as its step, which arccos would read as 0; newton-rq records the geodesic
# parameter.  On fig1's diagonal Q the last shift lands exactly on an
# eigenvalue, and the solve moves it by a unit of round-off: the last point
# lies an angle near 1e-24 off the axis, not on it.
_SHIFT_PINS = {
    ("rqi", 0): (3, 3.0011232328600623e-24, 2.2878234660167895e-09),
    ("rqi", 3): (3, 2.8202193591437244e-24, 1.5891375589845295e-09),
    ("newton-rq", 0): (3, 7.145662811916142e-24, 5.9036160190249095e-09),
    ("newton-rq", 3): (3, 8.277660557132133e-24, 4.6268335921344237e-09),
}


@pytest.mark.parametrize("method, seed", sorted(_SHIFT_PINS))
def test_shift_drivers_keep_every_row(method, seed, monkeypatch):
    # the run's every iterate, recorded by wrapping the error_fn that
    # run_fig1 passes to the driver it looks up at call time
    iterations, final_error, last_step = _SHIFT_PINS[method, seed]
    driver, runs = {"rqi": rqi, "newton-rq": newton_rayleigh}[method], []

    def recorded(Q, x0, config, error_fn):
        record, points = recording(error_fn)
        runs.append(points)
        return driver(Q, x0, config, error_fn=record)

    monkeypatch.setattr(experiments, driver.__name__, recorded)
    report, trace = run_fig1(ExperimentSpec("fig1", n=5, method=method, seed=seed))
    assert report.converged
    assert report.iterations == iterations
    assert report.final_error == pytest.approx(final_error, rel=1e-6, abs=1e-30)
    [points] = runs
    assert len(points) == len(trace)
    np.testing.assert_array_equal(trace.points[-1], points[-1])
    arc = sphere_log(points[-2], points[-1])[1]
    if method == "rqi":
        assert trace.steps[-2] == arc
    assert arc == pytest.approx(last_step, rel=1e-6, abs=1e-30)
    assert trace.steps[-1] == 0.0
