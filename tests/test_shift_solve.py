"""The shift solve ``(Q - rho I) y = x`` behind every Newton and quotient
step on the sphere, the Newton tangent formed from it, and the entry checks
of the eigenpair drivers and of the public shift entry points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from _oracles import midpoint_start, rand_sym, rand_unit
from riemopt import (
    RayleighObjective,
    SolverConfig,
    cg_extreme_eigen,
    line_minimize_geodesic,
    newton,
    newton_rayleigh,
    rayleigh_newton_step,
    rqi,
)
from riemopt.errors import NotUnitDirection, StepDeclined
from riemopt.sphere import normalized_start, shift_solve


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "eigenvalue", "singular"]),
       frac=st.floats(-1.5, 1.5))
def test_shift_solve_residual_and_flag(n, seed, kind, frac):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    w = np.linalg.eigvalsh(Q)
    if kind == "singular":
        # a zero row and column with a zero shift: an exactly zero pivot
        k = int(rng.integers(n))
        Q[k, :] = 0.0
        Q[:, k] = 0.0
        rho = 0.0
    elif kind == "eigenvalue":
        rho = float(w[rng.integers(n)])
    else:
        rho = frac * float(np.abs(w).max())
    x = rand_unit(rng, n)
    A = Q - rho * np.eye(n)

    y = shift_solve(Q, rho, x)

    assert np.all(np.isfinite(y))
    a_norm = np.linalg.norm(A, 2)
    solved = np.linalg.norm(A @ y - x) <= 1e-10 * a_norm * np.linalg.norm(y)
    # on a zero pivot the solve falls back to the unit null vector
    # (an eigenvalue shift can round to an exactly singular A at small n)
    null = (abs(np.linalg.norm(y) - 1.0) <= 1e-12
            and np.linalg.norm(A @ y) <= 1e-10 * a_norm)
    if kind == "singular":
        assert null
    else:
        assert solved or null


def _ldl_solve(A, x):
    """``A^{-1} x`` by LAPACK's Bunch-Kaufman sytrf, blocked, and sytrs."""
    lwork = int(lapack.dsytrf_lwork(A.shape[0])[0])
    ldl, piv, info = lapack.dsytrf(A, lwork=lwork)
    assert info == 0
    return lapack.dsytrs(ldl, piv, x)[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["C", "F", "strided"]), frac=st.floats(-1.5, 1.5))
def test_shift_solve_is_one_ldl_solve_bit_for_bit(n, seed, layout, frac):
    # the copy in memory order changes nothing but the cost: the same
    # matrix reaches sytrf and the caller's Q is left as it was
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    if layout == "F":
        Q = np.asfortranarray(Q)
    elif layout == "strided":
        wide = np.zeros((2 * n, 2 * n))
        wide[::2, ::2] = Q
        Q = wide[::2, ::2]
    before = Q.copy()
    rho = frac * float(np.abs(Q).max())
    x = rand_unit(rng, n)

    y = shift_solve(Q, rho, x)

    assert y.tobytes() == _ldl_solve(Q - rho * np.eye(n), x).tobytes()
    assert Q.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [1, 2, 60, 250])
def test_shift_solve_runs_the_blocked_factorization(monkeypatch, n):
    # scipy's default workspace, n, runs the unblocked code: several times
    # slower at the benchmark's sizes, and no test of the answer sees it
    seen = []
    dsytrf = lapack.dsytrf

    def recording(a, **kwargs):
        seen.append(kwargs.get("lwork"))
        return dsytrf(a, **kwargs)

    monkeypatch.setattr(lapack, "dsytrf", recording)
    rng = np.random.default_rng(n)
    shift_solve(rand_sym(rng, n), 0.25, rand_unit(rng, n))
    assert len(seen) == 1
    assert seen[0] is not None and seen[0] >= lapack.dsytrf_lwork(n)[0]


@pytest.mark.parametrize("m", [1, 5, 40, 130])
def test_shift_solve_with_only_two_by_two_pivots(m):
    # a zero diagonal leaves Bunch-Kaufman no 1-by-1 pivot to take
    rng = np.random.default_rng(m)
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    B = U * rng.uniform(1.0, 2.0, size=m)  # singular values in [1, 2]
    Q = np.block([[np.zeros((m, m)), B], [B.T, np.zeros((m, m))]])
    x = rand_unit(rng, 2 * m)
    assert np.all(lapack.dsytrf(Q)[1] < 0)  # every pivot block is 2-by-2

    y = shift_solve(Q, 0.0, x)

    ref = np.linalg.solve(Q, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


_BAD = {"non-square": (np.ones((3, 2)), "square"),
        "inf": (np.diag([3.0, np.inf, 1.0]), "finite"),
        "non-symmetric": (np.diag([3.0, 2.0, 1.0]) + np.eye(3, k=1) * 1e-3, "symmetric")}


@pytest.mark.parametrize("bad", sorted(_BAD))
@pytest.mark.parametrize("entry", ["shift_solve", "rayleigh_newton_step"])
def test_public_shift_entry_points_reject_a_bad_matrix(entry, bad):
    # a non-symmetric Q would otherwise solve the transposed system
    Q, match = _BAD[bad]
    x = np.ones(3) / np.sqrt(3.0)
    call = {"shift_solve": lambda: shift_solve(Q, 0.5, x),
            "rayleigh_newton_step": lambda: rayleigh_newton_step(Q, x)}[entry]
    with pytest.raises(ValueError, match=match):
        call()


def test_shift_drivers_run_without_an_svd(monkeypatch):
    rng = np.random.default_rng(60)
    n = 60
    Q = rand_sym(rng, n)
    x0 = rand_unit(rng, n)
    scale = np.linalg.norm(Q)

    def no_svd(*args, **kwargs):
        raise AssertionError("the shift solve ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for solver in (rqi, newton_rayleigh):
        res = solver(Q, x0, SolverConfig(max_iter=60))
        assert res.converged
        x = res.eigenvector
        assert np.linalg.norm(Q @ x - res.eigenvalue * x) <= 1e-10 * scale
    trace = newton(RayleighObjective(Q), x0, SolverConfig(max_iter=60, grad_tol=2e-10 * scale))
    assert trace.converged
    x = trace.points[-1]
    assert np.linalg.norm(Q @ x - (x @ Q @ x) * x) <= 1e-10 * scale


def test_tiny_pivot_stops_both_newton_drivers():
    # rho ~ -1e-15 on Q = diag(1, -1): the shift is well conditioned, but
    # x^T (Q - rho I)^{-1} x ~ 2 rho is at round-off level.  Both drivers
    # run the generic Newton, which falls back to a gradient step.
    Q = np.diag([1.0, -1.0])
    x = np.array([1.0, 1.0 + 1e-15])
    x = x / np.linalg.norm(x)
    rho = float(x @ Q @ x)
    assert np.linalg.cond(Q - rho * np.eye(2)) <= 1.0 + 1e-12
    y = shift_solve(Q, rho, x)
    assert 0.0 < abs(float(x @ y)) < 1e-14 * np.linalg.norm(y)
    with pytest.raises(StepDeclined, match="vanishes; no tangent step"):
        rayleigh_newton_step(Q, x)

    res = newton_rayleigh(Q, x, SolverConfig(max_iter=5))
    assert res.converged
    np.testing.assert_allclose(np.abs(res.eigenvector), [1.0, 0.0], atol=1e-12)
    trace = newton(RayleighObjective(Q), x, SolverConfig(max_iter=5))
    assert trace.converged
    np.testing.assert_allclose(np.abs(trace.points[-1]), [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("kind", ["exact", "golden"])
def test_newton_rayleigh_fallback_takes_the_configured_search(kind):
    # the tiny-pivot start above: the first step is the gradient fallback
    Q = np.diag([1.0, -1.0])
    x = normalized_start(np.array([1.0, 1.0 + 1e-15]))
    res = newton_rayleigh(Q, x, SolverConfig(max_iter=5, line_search=kind))
    objective = RayleighObjective(Q)
    ls = line_minimize_geodesic(objective, x, -objective.gradient(x),
                                SolverConfig(line_search=kind))
    assert res.trace.steps[0] == ls.step
    np.testing.assert_array_equal(res.trace.points[1], ls.point)


@pytest.mark.parametrize("solver", [rqi, newton_rayleigh, cg_extreme_eigen])
@pytest.mark.parametrize("start", ["zero", "nan", "inf"])
def test_drivers_reject_a_start_without_direction(solver, start):
    x0 = {"zero": np.zeros(3), "nan": np.array([1.0, np.nan, 0.0]),
          "inf": np.array([1.0, np.inf, 0.0])}[start]
    with pytest.raises(NotUnitDirection):
        solver(np.diag([3.0, 2.0, 1.0]), x0)


@pytest.mark.parametrize("solver", [rqi, newton_rayleigh])
def test_shift_drivers_reject_a_nonsymmetric_matrix(solver):
    Q = np.diag([3.0, 2.0, 1.0])
    Q[0, 1] = 1e-3
    with pytest.raises(ValueError):
        solver(Q, np.ones(3))


@pytest.mark.parametrize("solver", [rqi, newton_rayleigh, cg_extreme_eigen])
def test_drivers_reject_a_non_finite_matrix(solver):
    Q = np.diag([3.0, np.inf, 1.0])
    # rejected at entry, not by a LinAlgError (a ValueError) from a solve
    with pytest.raises(ValueError, match="finite"):
        solver(Q, np.ones(3))


def test_rayleigh_problem_rejects_a_non_finite_matrix():
    with pytest.raises(ValueError, match="finite"):
        RayleighObjective(np.diag([1.0, np.inf]), "min")


def test_config_rejects_a_negative_budget():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1)
    assert SolverConfig(max_iter=0).max_iter == 0


def test_generic_newton_leaves_an_eigenvalue_shift():
    Q = np.diag(np.arange(21, 0, -1.0))
    objective = RayleighObjective(Q)
    trace = newton(objective, midpoint_start(21, 0, 2))
    assert trace.values[0] == pytest.approx(20.0, abs=1e-14)
    assert trace.grad_norms[0] == pytest.approx(2.0)
    assert trace.converged
    assert trace.iterations >= 1
    assert trace.grad_norms[-1] < objective.gradient_floor
    assert trace.values[-1] == pytest.approx(21.0, abs=1e-12)


def test_newton_rayleigh_leaves_an_eigenvalue_shift():
    res = newton_rayleigh(np.diag(np.arange(21, 0, -1.0)), midpoint_start(21, 0, 2))
    assert res.converged
    assert res.iterations >= 1
    assert res.eigenvalue == pytest.approx(21.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(res.eigenvector[0]), 1.0, atol=1e-12)


def test_rqi_two_cycle_is_not_converged():
    # x and its mirror image (e1 - e3)/sqrt 2 map to each other; the
    # residual stays 1 at every iterate
    Q = np.diag([1.0, 0.0, -1.0])
    res = rqi(Q, midpoint_start(3, 0, 2), SolverConfig(max_iter=10))
    assert not res.converged
    assert res.iterations == 10
    np.testing.assert_allclose(res.trace.grad_norms, 2.0)
