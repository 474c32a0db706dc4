"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS line once its assertions hold (run pytest
with ``-s`` to see them); tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from _oracles import (
    axis_angle,
    commutator,
    fd_third_mixed,
    rand_rotation,
    rand_skew,
    rand_sym,
    rand_tangent,
    rand_unit,
    recording,
    skew_exp,
    transport_ode_rotation,
    transport_ode_sphere,
)
from riemopt import (
    BrockettObjective,
    SolverConfig,
    brockett_third_component,
    cg_extreme_eigen,
    conjugate_gradient,
    estimate_order,
    longest_decreasing_run,
    newton,
    newton_rayleigh,
    rayleigh_line_max,
    rqi,
    so_geodesic,
    so_transport,
    sphere_exp,
    sphere_log,
    sphere_transport,
    steepest_descent,
)
from riemopt import experiments
from riemopt.experiments import ExperimentSpec, run_fd_check, run_fig1, run_fig2, run_jacobi
from riemopt.rotation import conjugated_matrix


def first_index_at_or_below(values, threshold):
    arr = np.asarray(values)
    hits = np.nonzero(arr <= threshold)[0]
    return int(hits[0]) if len(hits) else np.inf


def test_criterion_1_derivative_correctness():
    t0 = time.perf_counter()
    report, _ = run_fd_check(ExperimentSpec("fd-check", n=8, method="all", seed=0))
    elapsed = time.perf_counter() - t0
    assert report.converged
    for fam in ("rayleigh", "brockett", "jacobi"):
        assert report.extra[f"{fam}_grad_err"] < 1e-6
        assert report.extra[f"{fam}_hess_err"] < 1e-5
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS derivative fd-check: grad {report.final_value:.2e} (<1e-6), "
          f"hess {report.final_error:.2e} (<1e-5), {elapsed:.2f}s (<10s)")


def test_criterion_2_geometry_invariants():
    rng = np.random.default_rng(0)
    # sphere: exp stays on the manifold
    for _ in range(20):
        x = rand_unit(rng, 6)
        h = rand_tangent(rng, x)
        y = sphere_exp(x, h, rng.uniform(0, 2 * np.pi))
        assert abs(y @ y - 1.0) <= 1e-10
    # rotation group: exp stays on the group
    for _ in range(10):
        T = rand_rotation(rng, 6)
        X = rand_skew(rng, 6)
        R = so_geodesic(T, X, rng.uniform(-2, 2))
        assert np.linalg.norm(R.T @ R - np.eye(6)) <= 1e-10
    # transports preserve inner products to 1e-12
    for _ in range(20):
        x = rand_unit(rng, 6)
        h = rand_tangent(rng, x)
        t = rng.uniform(0, 2)
        v = rand_tangent(rng, x, unit=False)
        w = rand_tangent(rng, x, unit=False)
        ip0 = v @ w
        ip1 = sphere_transport(x, h, t, v) @ sphere_transport(x, h, t, w)
        assert abs(ip1 - ip0) <= 1e-12 * max(1.0, abs(ip0))
        X = rand_skew(rng, 6)
        Y1, Y2 = rand_skew(rng, 6), rand_skew(rng, 6)
        jp0 = np.sum(Y1 * Y2)
        jp1 = np.sum(so_transport(Y1, X, t) * so_transport(Y2, X, t))
        assert abs(jp1 - jp0) <= 1e-12 * max(1.0, abs(jp0))
    # transports match ODE integration to 1e-8
    for _ in range(5):
        x = rand_unit(rng, 5)
        h = rand_tangent(rng, x)
        v = rand_tangent(rng, x, unit=False)
        t = rng.uniform(0.2, 1.5)
        assert np.linalg.norm(sphere_transport(x, h, t, v)
                              - transport_ode_sphere(x, h, t, v)) <= 1e-8
        X = rand_skew(rng, 5)
        Y = rand_skew(rng, 5)
        assert np.linalg.norm(so_transport(Y, X, t)
                              - transport_ode_rotation(X, Y, t)) <= 1e-8
    print("[criterion 2] PASS geometry: exp on-manifold <=1e-10, transport isometry "
          "<=1e-12, transport vs ODE <=1e-8")


def test_criterion_3_sphere_desk_reproduction():
    t0 = time.perf_counter()
    seed = 7
    sd_rep, sd_tr = run_fig1(ExperimentSpec("fig1", n=21, method="sd", seed=seed))
    cg_rep, cg_tr = run_fig1(ExperimentSpec("fig1", n=21, method="cg", seed=seed))
    nr_rep, _ = run_fig1(ExperimentSpec("fig1", n=21, method="newton-rq", seed=seed,
                                        init="near", init_eps=0.3))
    nw_rep, _ = run_fig1(ExperimentSpec("fig1", n=21, method="newton", seed=seed))
    rq_rep, _ = run_fig1(ExperimentSpec("fig1", n=21, method="rqi", seed=seed))
    elapsed = time.perf_counter() - t0

    assert sd_rep.order is not None
    assert abs(sd_rep.order.order - 1.0) <= 0.2
    assert sd_rep.order.rate < 1.0

    sd_hit = first_index_at_or_below(sd_tr.errors, 1e-10)
    cg_hit = first_index_at_or_below(cg_tr.errors, 1e-10)
    assert np.isfinite(cg_hit)
    assert cg_hit < sd_hit

    assert nr_rep.order is not None
    assert nr_rep.order.order >= 2.5

    for rep in (sd_rep, cg_rep, nr_rep, nw_rep, rq_rep):
        assert abs(rep.final_value - 21.0) <= 1e-10

    assert elapsed < 5.0
    print(f"[criterion 3] PASS sphere runs: SD order {sd_rep.order.order:.3f} "
          f"(theta {sd_rep.order.rate:.3f}), CG {cg_hit} < SD {sd_hit} iters to 1e-10, "
          f"NR order {nr_rep.order.order:.2f} (>=2.5), all rho -> 21, {elapsed:.2f}s (<5s)")


def test_criterion_4_cubic_quotient_agreement():
    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    axis = np.zeros(n)
    axis[0] = 1.0
    rng = np.random.default_rng(11)

    # next-iterate agreement from angle 1e-2
    u = rand_tangent(rng, axis)
    x0 = axis * np.cos(1e-2) + u * np.sin(1e-2)
    x_nr = newton_rayleigh(Q, x0, SolverConfig(max_iter=1)).eigenvector
    x_rq = rqi(Q, x0, SolverConfig(max_iter=1)).eigenvector
    gap = axis_angle(x_nr, x_rq)
    assert gap <= 1e-3

    # order fits need >= 3 pre-stagnation points, so measure them from a
    # wider start (the asymptotic order does not depend on the start)
    orders = {}
    for name, solver in (("newton-rq", newton_rayleigh), ("rqi", rqi)):
        u = rand_tangent(rng, axis)
        x1 = axis * np.cos(0.3) + u * np.sin(0.3)
        res = solver(Q, x1, error_fn=lambda x: axis_angle(x, axis))
        errs = res.trace.errors
        rep = estimate_order(errs, longest_decreasing_run(errs))
        orders[name] = rep.order
        assert rep.order >= 2.5
    print(f"[criterion 4] PASS quotient iterations: next-iterate angle {gap:.2e} (<=1e-3), "
          f"orders {orders['newton-rq']:.2f}/{orders['rqi']:.2f} (>=2.5)")


def test_criterion_5_rotation_desk_reproduction(monkeypatch):
    # every iterate of each run, recorded through the error function of the
    # solver that the experiment looks up at call time
    runs = []
    for solver in (steepest_descent, conjugate_gradient, newton):
        def recorded(objective, p0, config, solver=solver):
            record, points = recording(objective.error_metric)
            runs.append(points)
            return solver(objective, p0, config, record)

        monkeypatch.setattr(experiments, solver.__name__, recorded)
    t0 = time.perf_counter()
    seed = 3
    nw_rep, nw_tr = run_fig2(ExperimentSpec("fig2", n=10, method="newton", seed=seed,
                                            init="near", init_eps=1e-2))
    sd_rep, sd_tr = run_fig2(ExperimentSpec("fig2", n=10, method="sd", seed=seed))
    cg_rep, cg_tr = run_fig2(ExperimentSpec("fig2", n=10, method="cg", seed=seed))
    elapsed = time.perf_counter() - t0

    nw_hit = first_index_at_or_below(nw_tr.errors, 1e-9)
    assert nw_hit <= 3

    vals = np.asarray(sd_tr.values)
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))

    sd_hit = first_index_at_or_below(sd_tr.errors, 1e-9)
    cg_hit = first_index_at_or_below(cg_tr.errors, 1e-9)
    assert np.isfinite(cg_hit)
    assert cg_hit < sd_hit

    # isospectrality along every trajectory
    from riemopt.experiments import fig2_matrices
    Q, N, _ = fig2_matrices(10, seed)
    ref = np.sort(np.linalg.eigvalsh(Q))
    worst = 0.0
    assert [len(points) for points in runs] == [len(tr) for tr in (nw_tr, sd_tr, cg_tr)]
    for points in runs:
        for T in points:
            H = T.T @ Q @ T
            drift = np.max(np.abs(np.sort(np.linalg.eigvalsh(0.5 * (H + H.T))) - ref))
            worst = max(worst, drift)
    assert worst <= 1e-10

    assert elapsed < 30.0
    print(f"[criterion 5] PASS rotation runs: newton {nw_hit} iters to 1e-9 (<=3), "
          f"SD monotone, CG {cg_hit} < SD {sd_hit} iters to 1e-9, "
          f"isospectral drift {worst:.2e} (<=1e-10), {elapsed:.1f}s (<30s)")


def test_criterion_6_step_bound_validity():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 9))
        obj = BrockettObjective(rand_sym(rng, n), np.diag(np.arange(n, 0, -1.0)))
        T = rand_rotation(rng, n)
        H = conjugated_matrix(obj.Q, T)
        Om = commutator(H, obj.N)
        if np.linalg.norm(Om) < 1e-12:
            continue
        t_est = obj.step_estimate(T, Om)
        ts = np.linspace(0.0, t_est, 1000)
        vals = np.array([obj.report_value(so_geodesic(T, Om, t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12 * np.maximum(1.0, np.abs(vals[:-1])))
        checked += 1
    print("[criterion 6] PASS step bound: ascent nondecreasing on [0, t_est] "
          "(1000 samples, 50 seeded instances, tol 1e-12)")


def test_criterion_7_jacobi_cubic():
    rep, tr = run_jacobi(ExperimentSpec("jacobi", n=5, method="newton", seed=2))
    errs = np.asarray(tr.errors)
    assert np.all(np.diff(errs) < 0.0)
    assert errs[-1] < 1e-11
    assert rep.order is not None
    assert rep.order.order >= 2.5
    print(f"[criterion 7] PASS jacobi newton: order {rep.order.order:.2f} (>=2.5), "
          f"off-diagonal mass {errs[-1]:.2e} (<1e-11), monotone")


def test_criterion_8_third_differential_spot_check():
    rng = np.random.default_rng(31)
    n = 5
    # exact zero when h is proportional to nu
    worst0 = 0.0
    for _ in range(100):
        alpha = rng.normal()
        nu = rng.normal(size=n)
        X = rand_skew(rng, n)
        i, j = map(int, rng.choice(n, size=2, replace=False))
        worst0 = max(worst0, abs(brockett_third_component(alpha * nu, nu, X, i, j)))
    assert worst0 <= 1e-14

    # matches a third-order mixed finite difference at diagonal H
    worst_rel = 0.0
    for _ in range(5):
        h = rng.normal(size=n) * 2.0
        nu = np.arange(n, 0, -1.0)
        obj = BrockettObjective(np.diag(h), np.diag(nu))
        X = rand_skew(rng, n)
        i, j = map(int, rng.choice(n, size=2, replace=False))
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = -1.0

        def g(s, t):
            return obj.report_value(skew_exp(s * E + t * X))

        want = fd_third_mixed(g)
        got = brockett_third_component(h, nu, X, i, j)
        worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(got), abs(want)))
    assert worst_rel <= 1e-4
    print(f"[criterion 8] PASS third differential: proportional case {worst0:.1e} (<=1e-14), "
          f"fd match {worst_rel:.1e} (<=1e-4)")


def test_criterion_9_cg_mechanics():
    # (a) exact-line-search orthogonality at every step of the quotient CG
    n = 21
    Q = np.diag(np.arange(n, 0, -1.0))
    rng = np.random.default_rng(41)
    x0 = rand_unit(rng, n)
    record, points = recording()
    cg_extreme_eigen(Q, x0, SolverConfig(grad_tol=1e-12, max_iter=400), error_fn=record)
    worst = 0.0
    for i in range(len(points) - 1):
        x, x2 = points[i], points[i + 1]
        v, d = sphere_log(x, x2)
        if d == 0.0:
            continue
        w2 = Q @ x2
        G2 = w2 - (x2 @ w2) * x2
        G2 = G2 - (x2 @ G2) * x2
        n2 = np.linalg.norm(G2)
        if n2 == 0.0:
            continue
        tau_h = sphere_transport(x, v / d, d, v / d)
        worst = max(worst, abs(G2 @ tau_h) / n2)
    assert worst <= 1e-8

    # (b) closed-form line maximizer vs brute-force scan, within 1e-5 in t
    worst_t = 0.0
    Q = rand_sym(rng, 7)
    for _ in range(10):
        x = rand_unit(rng, 7)
        h = rand_tangent(rng, x)
        c, s, _ = rayleigh_line_max(Q, x, h)
        t_cf = np.arctan2(s, c) % np.pi
        qx, qh = Q @ x, Q @ h
        rho_x, rho_h, cross = x @ qx, h @ qh, x @ qh
        ts = np.arange(0.0, np.pi, 1e-5)
        vals = rho_x * np.cos(ts) ** 2 + 2 * cross * np.sin(ts) * np.cos(ts) + rho_h * np.sin(ts) ** 2
        t_scan = ts[np.argmax(vals)]
        diff = abs(t_cf - t_scan)
        worst_t = max(worst_t, min(diff, np.pi - diff))
    assert worst_t <= 1e-5

    # (c) synthetic order recovery
    for p, seq in ((1, [1e-1, 1e-2, 1e-3, 1e-4]),
                   (2, [1e-1, 1e-2, 1e-4, 1e-8]),
                   (3, [1e-1, 1e-3, 1e-9])):
        assert abs(estimate_order(seq).order - p) <= 0.05
    print(f"[criterion 9] PASS cg mechanics: orthogonality {worst:.1e} (<=1e-8), "
          f"line max vs scan {worst_t:.1e} (<=1e-5), synthetic orders recovered")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(51)
    summary = []
    for n in (4, 10):
        Q = rand_sym(rng, n)
        w, V = np.linalg.eigh(Q)
        cg = cg_extreme_eigen(Q, rand_unit(rng, n), SolverConfig(max_iter=500))
        assert cg.converged
        assert abs(cg.eigenvalue - w[-1]) <= 1e-8
        assert axis_angle(cg.eigenvector, V[:, -1]) <= 1e-8

        nr = newton_rayleigh(Q, rand_unit(rng, n), SolverConfig(max_iter=100))
        assert nr.converged
        k = int(np.argmin(np.abs(w - nr.eigenvalue)))
        assert abs(nr.eigenvalue - w[k]) <= 1e-8
        assert axis_angle(nr.eigenvector, V[:, k]) <= 1e-8
        summary.append(f"n={n}: cg d(lam) {abs(cg.eigenvalue - w[-1]):.1e}, "
                       f"nr d(lam) {abs(nr.eigenvalue - w[k]):.1e}")
    print(f"[criterion 10] PASS dense-eigensolve agreement (<=1e-8): {'; '.join(summary)}")
