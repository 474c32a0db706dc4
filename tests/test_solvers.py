import numpy as np
import pytest

from _oracles import axis_angle, rand_rotation, rand_skew, rand_sym, rand_tangent, rand_unit
from riemopt import (
    BrockettObjective,
    GeodesicObjective,
    JacobiObjective,
    Manifold,
    RayleighObjective,
    SolverConfig,
    Sphere,
    conjugate_gradient,
    line_minimize_geodesic,
    newton,
    sphere_log,
    sphere_transport,
    steepest_descent,
)
from riemopt.errors import (
    Diverged,
    LineSearchFailed,
    NonFinite,
    NotRotation,
    NotUnitDirection,
    StepDeclined,
    ZeroTangent,
)
from riemopt import solvers
from riemopt.experiments import jacobi_matrices
from riemopt.sampling import random_rotation, rng_from_seed


class Euclid(Manifold):
    """Flat space for exercising the generic solver machinery."""

    def __init__(self, n):
        self.n = n

    @property
    def dim(self):
        return self.n

    def exp(self, p, v, t=1.0):
        return p + t * v

    def transport(self, p, v, t, w):
        return w

    def inner(self, p, u, v):
        return float(u @ v)

    def check_point(self, p):
        pass


class Paraboloid(GeodesicObjective):
    def __init__(self, center):
        self.center = np.asarray(center, float)
        self.manifold = Euclid(len(self.center))

    def value(self, p):
        d = p - self.center
        return float(d @ d)

    def gradient(self, p):
        return 2.0 * (p - self.center)


class OutwardNewton(Paraboloid):
    """Pathological problem whose 'Newton' direction walks uphill."""

    def newton_direction(self, p):
        return p.copy()


def test_line_search_parabola_vertex():
    obj = Paraboloid([1.0, 0.0])
    p = np.zeros(2)
    H = np.array([1.0, 0.0])
    res = line_minimize_geodesic(obj, p, H, SolverConfig(line_search="golden"))
    assert res.step == pytest.approx(1.0, abs=1e-8)
    assert res.evaluations > 0


def test_line_search_uphill_raises():
    obj = Paraboloid([1.0, 0.0])
    p = np.zeros(2)
    H = np.array([-1.0, 0.0])
    with pytest.raises(LineSearchFailed):
        line_minimize_geodesic(obj, p, H, SolverConfig(line_search="golden"))


class _Linear(GeodesicObjective):
    """``c^T p`` on flat space: the slope along ``-c`` is ``-|c|^2`` at every
    step, so the slope search never finds an upper end."""

    def __init__(self, c):
        self.c = np.asarray(c, float)
        self.manifold = Euclid(len(self.c))

    def value(self, p):
        return float(self.c @ p)

    def gradient(self, p):
        return self.c.copy()


class _NaNAwayFromZero(Paraboloid):
    """A gradient that is NaN at every point but the origin."""

    def gradient(self, p):
        return super().gradient(p) if not np.any(p) else np.full_like(p, np.nan)


class _ValueUpsideDown(Paraboloid):
    """The paraboloid's slope, but the negative of its value: the zero of the
    slope raises the value."""

    def value(self, p):
        return -super().value(p)


class _RefusingEstimate(Paraboloid):
    def step_estimate(self, p, h):
        raise StepDeclined("the estimate refuses h")


@pytest.mark.parametrize("objective, direction, kind, message, cause", [
    (Paraboloid([1.0, 0.0]), [-1.0, 0.0], "bracket", "is not below", None),
    (_NaNAwayFromZero([1.0, 0.0]), [1.0, 0.0], "bracket", "is not finite", None),
    (_ValueUpsideDown([1.0, 0.0]), [1.0, 0.0], "bracket", "raised the objective", None),
    (_Linear([1.0, 0.0]), [-1.0, 0.0], "bracket", "evaluation budget", None),
    (Paraboloid([1.0, 0.0]), [1.0, 0.0], "exact", "no closed-form line step", None),
    (Paraboloid([1.0, 0.0]), [1.0, 0.0], "estimate", "no step estimate", None),
    (_RefusingEstimate([1.0, 0.0]), [1.0, 0.0], "estimate", "refuses", StepDeclined),
], ids=["uphill", "non-finite-slope", "raised-value", "budget", "no-closed-form",
        "no-estimate", "estimate-declined"])
def test_every_line_search_failure_is_line_search_failed(objective, direction, kind,
                                                         message, cause):
    with pytest.raises(LineSearchFailed, match=message) as info:
        line_minimize_geodesic(objective, np.zeros(2), np.array(direction),
                               SolverConfig(line_search=kind))
    assert type(info.value) is LineSearchFailed and info.value.trace is None
    assert isinstance(info.value.__cause__, cause or type(None))


@pytest.mark.parametrize("kind", ["exact", "bracket", "estimate"])
def test_line_search_on_a_zero_direction_raises_zero_tangent(kind):
    with pytest.raises(ZeroTangent):
        line_minimize_geodesic(Paraboloid([1.0, 0.0]), np.zeros(2), np.zeros(2),
                               SolverConfig(line_search=kind))


def test_golden_is_an_alias_of_the_bracket_search():
    assert SolverConfig(line_search="golden").line_search == "bracket"
    assert SolverConfig().line_search == "bracket"


@pytest.mark.parametrize("seed", range(3))
def test_bracket_search_steps_back_over_a_hump(seed):
    # the first gradient step of `jacobi --n 10 --init random`: the first
    # trial step, 1, lands past a hump of the objective along the geodesic,
    # still descending but above the start; the minimizer it returns lies
    # below the start
    obj = JacobiObjective(jacobi_matrices(10, seed)[0])
    T = random_rotation(rng_from_seed(seed + 1), 10)
    H = -obj.gradient(T)
    res = line_minimize_geodesic(obj, T, H)
    assert obj.value(res.point) < obj.value(T)
    slope = obj.manifold.inner(res.point, obj.gradient(res.point), H)
    assert abs(slope) <= 1e-10 * obj.manifold.inner(T, H, H)


def test_line_search_exact_vs_golden_on_sphere():
    rng = np.random.default_rng(0)
    n = 8
    obj = RayleighObjective(rand_sym(rng, n), which="max")
    x = rand_unit(rng, n)
    H = rand_tangent(rng, x, unit=False)
    if obj.manifold.inner(x, obj.gradient(x), H) > 0:
        H = -H  # make it a descent direction for the minimized value
    exact = line_minimize_geodesic(obj, x, H, SolverConfig(line_search="exact"))
    golden = line_minimize_geodesic(obj, x, H, SolverConfig(line_search="golden"))
    nH = np.linalg.norm(H)
    # the restricted quotient has period pi along the circle; golden may
    # settle in any equivalent period
    diff = abs(exact.step - golden.step) * nH % np.pi
    assert min(diff, np.pi - diff) <= 1e-5
    assert obj.value(golden.point) == pytest.approx(obj.value(exact.point), abs=1e-9)


class _ExactBrockett(BrockettObjective):
    """Brockett ascent whose curvature-bound step stands in for a closed
    form, so the 'exact' kind can run on SO(n)."""

    def exact_line_step(self, T, X):
        return self.step_estimate(T, X)


class _EstimateRayleigh(RayleighObjective):
    """Rayleigh extremization that offers its closed-form step as the
    problem's estimate, so the 'estimate' kind can run on the sphere."""

    def step_estimate(self, x, h):
        return self.exact_line_step(x, h)


@pytest.mark.parametrize("kind", ["exact", "golden", "estimate"])
@pytest.mark.parametrize("manifold", ["sphere", "rotation"])
def test_line_search_returns_accepted_point(kind, manifold):
    rng = np.random.default_rng(14)
    n = 6
    Q = rand_sym(rng, n)
    if manifold == "sphere":
        obj = _EstimateRayleigh(Q, which="max")
        p = rand_unit(rng, n)
    else:
        obj = _ExactBrockett(Q, np.diag(np.arange(n, 0, -1.0)))
        p = rand_rotation(rng, n)
    H = -obj.gradient(p)
    res = line_minimize_geodesic(obj, p, H, SolverConfig(line_search=kind))
    assert np.array_equal(res.point, obj.manifold.exp(p, H, res.step))


def test_steepest_descent_stops_at_critical_point():
    n = 6
    Q = np.diag(np.arange(n, 0, -1.0))
    obj = RayleighObjective(Q, which="max")
    x0 = np.zeros(n)
    x0[0] = 1.0
    trace = steepest_descent(obj, x0, SolverConfig(line_search="exact"))
    assert len(trace) == 1
    assert trace.iterations == 0


def test_steepest_descent_sphere_run():
    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    obj = RayleighObjective(Q, which="max")
    rng = np.random.default_rng(1)
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(line_search="exact", max_iter=2000)
    trace = steepest_descent(obj, x0, cfg, error_fn=lambda x: axis_angle(x, axis))
    assert trace.grad_norms[-1] < cfg.grad_tol
    assert abs(trace.values[-1] - n) <= 1e-10
    # objective values never decrease for the maximization problem
    vals = np.asarray(trace.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))


def test_steepest_descent_ninety_degree_turns():
    n = 12
    rng = np.random.default_rng(2)
    obj = RayleighObjective(rand_sym(rng, n), which="max")
    x0 = rand_unit(rng, n)
    trace = steepest_descent(obj, x0, SolverConfig(line_search="exact", max_iter=60))
    for i in range(min(len(trace) - 1, 40)):
        x, x2 = trace.points[i], trace.points[i + 1]
        g = -obj.gradient(x)  # descent direction followed by the solver
        g2 = -obj.gradient(x2)
        v, d = sphere_log(x, x2)
        if d == 0.0 or np.linalg.norm(g2) < 1e-9:
            continue
        tau_g = sphere_transport(x, v / d, d, g)
        cosang = abs(g2 @ tau_g) / (np.linalg.norm(g2) * np.linalg.norm(g))
        assert cosang <= 1e-8


def test_steepest_descent_brockett_monotone():
    n = 10
    rng = np.random.default_rng(3)
    N = np.diag(np.arange(n, 0, -1.0))
    obj = BrockettObjective(rand_sym(rng, n) + np.diag(np.arange(n, 0, -1.0)), N)
    T0 = rand_rotation(rng, n)
    cfg = SolverConfig(line_search="estimate", max_iter=300)
    trace = steepest_descent(obj, T0, cfg)
    vals = np.asarray(trace.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))
    # iterates stay on the group
    for T in trace.points[:: max(1, len(trace) // 10)]:
        assert np.linalg.norm(T.T @ T - np.eye(n)) <= 1e-10


def test_newton_stops_at_critical_point():
    Q = np.diag([3.0, 2.0, 1.0])
    obj = RayleighObjective(Q, which="max")
    x0 = np.array([1.0, 0.0, 0.0])
    trace = newton(obj, x0)
    assert trace.iterations == 0


def test_newton_cubic_on_sphere():
    from riemopt import estimate_order, longest_decreasing_run

    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    obj = RayleighObjective(Q, which="max")
    rng = np.random.default_rng(4)
    u = rand_tangent(rng, axis)
    x0 = axis * np.cos(0.1) + u * np.sin(0.1)
    trace = newton(obj, x0, SolverConfig(max_iter=50),
                   error_fn=lambda x: axis_angle(x, axis))
    rep = estimate_order(trace.errors, longest_decreasing_run(trace.errors))
    assert rep.order >= 2.5
    assert abs(trace.values[-1] - n) <= 1e-10


def test_newton_brockett_fast_local_convergence():
    n = 10
    rng = np.random.default_rng(5)
    N = np.diag(np.arange(n, 0, -1.0))
    lam = np.arange(n, 0, -1.0)
    V = rand_rotation(rng, n)
    Q = V @ np.diag(lam) @ V.T
    Q = 0.5 * (Q + Q.T)
    obj = BrockettObjective(Q, N)
    w, U = np.linalg.eigh(Q)
    T_hat = U[:, np.argsort(w)[::-1]]
    if np.linalg.det(T_hat) < 0:
        T_hat[:, -1] = -T_hat[:, -1]
    X = rand_skew(rng, n)
    X /= np.linalg.norm(X)
    T0 = obj.manifold.exp(T_hat, X, 1e-2)
    trace = newton(obj, T0, SolverConfig(max_iter=10))
    errs = np.asarray(trace.errors)
    assert np.min(errs) < 1e-9
    assert int(np.argmax(errs < 1e-9)) <= 3


def test_newton_fallback_on_indefinite():
    # far from the maximizer the second-differential operator is indefinite
    n = 6
    rng = np.random.default_rng(6)
    N = np.diag(np.arange(n, 0, -1.0))
    Q = rand_sym(rng, n) + 2.0 * np.diag(np.arange(n, 0, -1.0))
    Q = 0.5 * (Q + Q.T)
    obj = BrockettObjective(Q, N)
    # start at the minimizer-like configuration: reversed alignment
    w, U = np.linalg.eigh(Q)
    T_rev = U[:, np.argsort(w)]  # ascending: anti-aligned with N
    if np.linalg.det(T_rev) < 0:
        T_rev[:, -1] = -T_rev[:, -1]
    X = rand_skew(rng, n)
    X /= np.linalg.norm(X)
    T0 = obj.manifold.exp(T_rev, X, 0.3)
    cfg = SolverConfig(max_iter=5, line_search="estimate")
    trace = newton(obj, T0, cfg)
    assert len(trace) > 1  # made progress via gradient fallback
    vals = np.asarray(trace.values)
    assert vals[-1] >= vals[0] - 1e-9


def test_newton_divergence_guard():
    obj = OutwardNewton([0.0, 0.0])
    with pytest.raises(Diverged):
        newton(obj, np.array([1.0, 0.5]), SolverConfig(max_iter=50))


def test_cg_small_sphere_near_quadratic():
    # on S^2 (dimension 2) a near-quadratic start converges in ~d+1 searches
    rng = np.random.default_rng(7)
    n = 3
    Q = rand_sym(rng, n) + np.diag([3.0, 1.5, 0.0])
    Q = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(Q)
    top = V[:, -1]
    obj = RayleighObjective(Q, which="max")
    u = rand_tangent(rng, top)
    x0 = top * np.cos(0.05) + u * np.sin(0.05)
    cfg = SolverConfig(line_search="exact", max_iter=3)
    trace = conjugate_gradient(obj, x0, cfg, error_fn=lambda x: axis_angle(x, top))
    assert trace.errors[-1] <= 1e-4 * trace.errors[0]
    assert trace.grad_norms[-1] <= 1e-4 * trace.grad_norms[0]


def test_cg_beats_steepest_descent_on_sphere():
    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    obj = RayleighObjective(Q, which="max")
    rng = np.random.default_rng(8)
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(line_search="exact", max_iter=2000, grad_tol=1e-10)
    err = lambda x: axis_angle(x, axis)
    tr_sd = steepest_descent(obj, x0, cfg, error_fn=err)
    tr_cg = conjugate_gradient(obj, x0, cfg, error_fn=err)
    assert tr_cg.grad_norms[-1] < 1e-10
    assert tr_cg.iterations < tr_sd.iterations


def test_cg_descent_and_exact_search_orthogonality():
    n = 15
    rng = np.random.default_rng(9)
    Q = rand_sym(rng, n)
    obj = RayleighObjective(Q, which="max")
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(line_search="exact", max_iter=120)
    trace = conjugate_gradient(obj, x0, cfg)
    vals = np.asarray(trace.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))
    for i in range(len(trace) - 1):
        x, x2 = trace.points[i], trace.points[i + 1]
        v, d = sphere_log(x, x2)
        if d == 0.0:
            continue
        g2 = -obj.gradient(x2)
        # below ~1e-6 the ratio measures representation noise, not the search
        if np.linalg.norm(g2) < 1e-6:
            continue
        tau_h = sphere_transport(x, v / d, d, v / d)  # unit direction of H_i
        cosang = abs(g2 @ tau_h) / np.linalg.norm(g2)
        assert cosang <= 1e-8


def test_cg_conjugacy_surrogate_near_optimum():
    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    obj = RayleighObjective(Q, which="max")
    rng = np.random.default_rng(10)
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(line_search="exact", max_iter=400, grad_tol=1e-11)
    trace = conjugate_gradient(obj, x0, cfg, error_fn=lambda x: axis_angle(x, axis))
    reset = obj.manifold.dim
    checked = 0
    for i in range(len(trace) - 2):
        if not (1e-7 < trace.errors[i] < 1e-2):
            continue
        if (i % reset) == reset - 1 or ((i + 1) % reset) == reset - 1:
            continue  # directions around a reset are not conjugate pairs
        x1, x2, x3 = trace.points[i], trace.points[i + 1], trace.points[i + 2]
        v1, d1 = sphere_log(x1, x2)
        v2, d2 = sphere_log(x2, x3)
        if d1 == 0.0 or d2 == 0.0:
            continue
        tau_h = sphere_transport(x1, v1 / d1, d1, v1 / d1)
        h_next = v2 / d2
        num = abs(float(obj.hessian_apply(x2, tau_h) @ h_next))
        den = abs(float(obj.hessian_apply(x2, tau_h) @ tau_h))
        assert num <= 0.1 * den
        checked += 1
    assert checked >= 3


def test_cg_trace_error_consistency_and_determinism():
    n = 10
    rng = np.random.default_rng(11)
    Q = rand_sym(rng, n)
    obj = RayleighObjective(Q, which="max")
    x0 = rand_unit(rng, n)
    cfg = SolverConfig(line_search="exact", max_iter=60)
    err = lambda x: float(np.linalg.norm(obj.gradient(x)))
    t1 = conjugate_gradient(obj, x0, cfg, error_fn=err)
    t2 = conjugate_gradient(obj, x0, cfg, error_fn=err)
    assert t1.values == t2.values
    assert t1.errors == t2.errors
    assert t1.steps == t2.steps
    for i, p in enumerate(t1.points):
        assert err(p) == t1.errors[i]


def test_cg_windowed_superlinear_fit():
    # error over a window of d steps contracts superlinearly on the tail
    from riemopt import STAGNATION_FLOOR, cg_extreme_eigen, estimate_order

    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(13)
    x0 = rand_unit(rng, n)
    res = cg_extreme_eigen(Q, x0, SolverConfig(grad_tol=1e-12, max_iter=400),
                           error_fn=lambda x: axis_angle(x, axis))
    e = np.asarray(res.trace.errors)
    stop = len(e)
    while stop > 0 and e[stop - 1] <= STAGNATION_FLOOR:
        stop -= 1
    rep = estimate_order(e, (0, stop), lag=n - 1)
    assert rep.order >= 1.5


def test_cg_reset_period_config():
    n = 8
    rng = np.random.default_rng(12)
    Q = rand_sym(rng, n)
    obj = RayleighObjective(Q, which="max")
    x0 = rand_unit(rng, n)
    a = conjugate_gradient(obj, x0, SolverConfig(line_search="exact", max_iter=40, reset_period=2))
    b = conjugate_gradient(obj, x0, SolverConfig(line_search="exact", max_iter=40, reset_period=7))
    assert a.values != b.values  # the period genuinely changes the run


# ---------------------------------------------------------------------------
# the loop that stops decides convergence


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient, newton])
def test_trace_not_converged_when_budget_runs_out(solver):
    rng = np.random.default_rng(3)
    obj = RayleighObjective(np.diag(np.arange(8, 0, -1.0)))
    trace = solver(obj, rand_unit(rng, 8), SolverConfig(max_iter=1, line_search="exact"))
    assert trace.iterations == 1
    assert trace.grad_norms[-1] >= 1e-12
    assert not trace.converged


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient, newton])
def test_trace_converged_when_tolerance_stops(solver):
    n = 8
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(5)
    x0 = axis * np.cos(0.1) + rand_tangent(rng, axis) * np.sin(0.1)
    config = SolverConfig(grad_tol=1e-6, max_iter=500, line_search="exact")
    trace = solver(RayleighObjective(np.diag(np.arange(n, 0, -1.0))), x0, config)
    assert trace.iterations < config.max_iter
    assert trace.grad_norms[-1] < config.grad_tol
    assert trace.converged


def test_newton_takes_the_last_step_on_a_singular_shift():
    # rho rounds to the top eigenvalue exactly, so the shift is singular
    # while the gradient is still far above the tolerance
    n = 5
    axis = np.zeros(n)
    axis[0] = 1.0
    x0 = axis * np.cos(1e-9) + np.array([0.0, 0.6, 0.8, 0.0, 0.0]) * np.sin(1e-9)
    config = SolverConfig(grad_tol=1e-15)
    trace = newton(RayleighObjective(np.diag(np.arange(n, 0, -1.0))), x0, config,
                   error_fn=lambda x: axis_angle(x, axis))
    assert trace.grad_norms[0] > 1e-9
    assert trace.iterations == 1
    assert trace.steps == [1.0, 0.0]
    assert trace.errors[-1] <= 1e-15
    assert trace.converged


def test_solver_error_leaves_trace_unconverged():
    # the quotient has no step estimate, so the first line search fails
    obj = RayleighObjective(np.diag([3.0, 2.0, 1.0]))
    with pytest.raises(LineSearchFailed) as info:
        steepest_descent(obj, np.ones(3) / np.sqrt(3.0), SolverConfig(line_search="estimate"))
    assert len(info.value.trace) == 1
    assert not info.value.trace.converged


def test_generic_newton_reaches_eigen_residual_at_n200():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 200))
    Q = 0.5 * (A + A.T)
    x0 = rng.standard_normal(200)
    trace = newton(RayleighObjective(Q), x0 / np.linalg.norm(x0))
    x = trace.points[-1]
    assert trace.converged
    assert np.linalg.norm(Q @ x - (x @ Q @ x) * x) <= 1e-10 * np.linalg.norm(Q)


def _nan_start(manifold):
    """Objective and a start holding a NaN, on the sphere or on SO(n)."""
    n = 5
    if manifold == "sphere":
        x0 = np.ones(n) / np.sqrt(n)
        x0[2] = np.nan
        return RayleighObjective(np.diag(np.arange(n, 0, -1.0))), x0
    T0 = np.eye(n)
    T0[1, 3] = np.nan
    return BrockettObjective(np.diag(np.arange(n, 0, -1.0)), np.diag(np.arange(n, 0, -1.0))), T0


@pytest.mark.parametrize("manifold", ["sphere", "rotation"])
@pytest.mark.parametrize("solver", [steepest_descent, newton, conjugate_gradient])
def test_non_finite_start_raises_before_the_error_metric(solver, manifold):
    # the sphere runs used to spend the whole budget on NaN and the SO(n)
    # runs to escape as a LinAlgError from eigvalsh in error_metric
    obj, p0 = _nan_start(manifold)
    with pytest.raises(NonFinite) as info:
        solver(obj, p0, SolverConfig(max_iter=30))
    assert len(info.value.trace) == 0
    assert not info.value.trace.converged


class _GradientTurnsNaN(RayleighObjective):
    """Rayleigh quotient whose third and later gradients are NaN."""

    calls = 0

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g * np.nan if self.calls >= 3 else g


@pytest.mark.parametrize("solver", [steepest_descent, newton, conjugate_gradient])
def test_non_finite_gradient_mid_run_carries_the_partial_trace(solver):
    rng = np.random.default_rng(5)
    obj = _GradientTurnsNaN(rand_sym(rng, 6))
    with pytest.raises(NonFinite) as info:
        solver(obj, rand_unit(rng, 6), SolverConfig(max_iter=30, line_search="exact"),
               error_fn=lambda x: 0.0)
    trace = info.value.trace
    assert len(trace) == 2
    assert np.all(np.isfinite(trace.grad_norms))
    assert not trace.converged


# ---------------------------------------------------------------------------
# one descent loop, one line-search failure path, a checked start


class _CountingSphere(Sphere):
    def __init__(self, n):
        super().__init__(n)
        self.transports = 0

    def transport(self, p, v, t, w):
        self.transports += 1
        return super().transport(p, v, t, w)


class _CountedRayleigh(RayleighObjective):
    """Rayleigh quotient on a sphere that counts its parallel transports."""

    def __init__(self, Q):
        super().__init__(Q)
        self.manifold = _CountingSphere(len(Q))


def _counted_run(solver, reset_period=None):
    rng = np.random.default_rng(15)
    obj = _CountedRayleigh(rand_sym(rng, 8))
    config = SolverConfig(line_search="exact", max_iter=30, reset_period=reset_period)
    trace = solver(obj, rand_unit(rng, 8), config)
    assert trace.iterations >= 10
    return trace, obj.manifold.transports


def test_steepest_descent_never_transports():
    _, transports = _counted_run(steepest_descent)
    assert transports == 0


@pytest.mark.parametrize("k", [1, 3, 7])
def test_cg_transports_twice_per_conjugate_step(k):
    # a reset step sets the direction to the gradient and needs no transport
    trace, transports = _counted_run(conjugate_gradient, reset_period=k)
    conjugate_steps = sum(1 for i in range(trace.iterations) if i % k != k - 1)
    assert transports == 2 * conjugate_steps


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient])
def test_bracket_search_takes_the_solvers_gradient_at_the_start(solver, monkeypatch):
    # per iterate one gradient for the step and one for the error metric (the
    # gradient norm), and one per trial point; none again for d(0)
    rng = np.random.default_rng(16)
    obj = RayleighObjective(rand_sym(rng, 8))
    x = rand_unit(rng, 8)
    formed = []
    gradient = obj.gradient
    monkeypatch.setattr(obj, "gradient", lambda p: formed.append(1) or gradient(p))
    fresh = line_minimize_geodesic(obj, x, -gradient(x))
    assert len(formed) == fresh.evaluations + 1
    formed.clear()
    given = line_minimize_geodesic(obj, x, -gradient(x), gradient=gradient(x))
    assert len(formed) == given.evaluations
    assert (given.step, given.evaluations) == (fresh.step, fresh.evaluations)
    assert np.array_equal(given.point, fresh.point)
    search, evaluations = solvers.line_minimize_geodesic, []

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(solvers, "line_minimize_geodesic", counted)
    formed.clear()
    trace = solver(obj, x, SolverConfig(max_iter=30))
    assert len(evaluations) == trace.iterations >= 10
    assert len(formed) == 2 * len(trace) + sum(evaluations)


class _NoNewtonNoEstimate(Paraboloid):
    """Indefinite everywhere, and its step estimate refuses the gradient."""

    def newton_direction(self, p):
        raise StepDeclined("indefinite everywhere")

    def step_estimate(self, p, h):
        raise StepDeclined("no step estimate along h")


def test_newton_fallback_failure_carries_the_partial_trace():
    with pytest.raises(LineSearchFailed) as info:
        newton(_NoNewtonNoEstimate([1.0, 0.0]), np.zeros(2), SolverConfig(line_search="estimate"))
    assert isinstance(info.value.__cause__, StepDeclined)
    assert len(info.value.trace) == 1
    assert not info.value.trace.converged


class _ZeroNewtonRayleigh(RayleighObjective):
    """A Newton direction that is exactly zero away from any critical point."""

    def newton_direction(self, x):
        return np.zeros_like(x)


def test_newton_takes_a_gradient_step_on_a_zero_direction():
    # the sphere cannot move along a zero tangent; Newton falls back to the
    # line-minimized gradient step, so it runs as steepest descent does
    rng = np.random.default_rng(8)
    Q = np.diag(np.arange(6.0, 0.0, -1.0))
    x0 = rand_unit(rng, 6)
    config = SolverConfig(max_iter=15, line_search="exact")
    trace = newton(_ZeroNewtonRayleigh(Q), x0, config)
    reference = steepest_descent(RayleighObjective(Q), x0, config)
    assert trace.iterations == reference.iterations == 15
    assert np.array_equal(trace.points, reference.points)
    assert trace.steps == reference.steps


@pytest.mark.parametrize("solver", [steepest_descent, newton, conjugate_gradient])
def test_start_off_the_sphere_is_rejected(solver):
    rng = np.random.default_rng(0)
    obj = RayleighObjective(rand_sym(rng, 4))
    with pytest.raises(NotUnitDirection):
        solver(obj, 1.5 * rand_unit(rng, 4), SolverConfig(line_search="exact"))


@pytest.mark.parametrize("solver", [steepest_descent, newton, conjugate_gradient])
def test_start_off_the_rotation_group_is_rejected(solver):
    # 1.05 I is no rotation: tr(T'DTD) reads 60.64 there, above the
    # maximum of 55 over SO(5), so a run from it reports a false optimum
    D = np.diag(np.arange(5, 0, -1.0))
    with pytest.raises(NotRotation):
        solver(BrockettObjective(D, D), 1.05 * np.eye(5), SolverConfig(line_search="estimate"))


@pytest.mark.parametrize("grad_tol", [0.0, -1.0, np.nan, np.inf])
def test_solver_config_rejects_a_tolerance_that_is_not_positive_and_finite(grad_tol):
    with pytest.raises(ValueError, match="positive and finite"):
        SolverConfig(grad_tol=grad_tol)
