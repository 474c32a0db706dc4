"""The shift solve ``(Q - rho I) y = x`` behind every Newton and quotient
step on the sphere, the Newton tangent formed from it, and the entry checks
of the eigenpair drivers, of the Newton step and of the shift solve."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from _oracles import midpoint_start, rand_sym, rand_unit, recording
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
from riemopt.core import _scipy
from riemopt.errors import NotUnitDirection, StepDeclined
from riemopt.experiments import ExperimentSpec, run_fig1
from riemopt.sphere import _shift_solve, normalized_start


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

    y = _shift_solve(RayleighObjective(Q), rho, x)

    assert np.all(np.isfinite(y))
    a_norm = np.linalg.norm(A, 2)
    # backward stable for every shift: on an exactly zero pivot of T - rho I
    # (an eigenvalue shift can round to one at small n) the solve moves the
    # shift by a unit of round-off, well inside this bound
    assert np.linalg.norm(A @ y - x) <= 1e-10 * a_norm * np.linalg.norm(y)
    if kind == "singular":
        # the reduction rounds an exactly singular A to a nearly singular
        # T - rho I, or to an exactly singular one that the solve moves off:
        # y is large and finite either way, along a null vector to round-off
        assert np.linalg.norm(A @ (y / np.linalg.norm(y))) <= 1e-10 * a_norm


def _tridiagonal_solve(A, rho, x):
    """``(A - rho I)^{-1} x`` by LAPACK's sytrd (lower, blocked in 8-column
    panels), ormqr with ``P^T`` on the trailing n - 1 coordinates, gtsv on
    ``T - rho I`` and ormqr with ``P``; None on an exactly zero pivot of
    ``T - rho I``."""
    n = A.shape[0]
    c, d, e, tau, info = lapack.dsytrd(A, lower=1, lwork=8 * n)
    assert info == 0
    V = np.asfortranarray(c[1:, :-1])
    y = x.copy()
    y[1:] = lapack.dormqr("L", "T", V, tau, y[1:], 1)[0]
    y, info = lapack.dgtsv(e, d - rho, e, y)[3:]
    if info > 0:  # an exactly zero pivot: the solve moves the shift
        return None
    y[1:] = lapack.dormqr("L", "N", V, tau, y[1:], 1)[0]
    return y


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["C", "F", "strided"]), frac=st.floats(-1.5, 1.5))
def test_shift_solve_is_one_reduced_solve_bit_for_bit(n, seed, layout, frac):
    # the copy in memory order and the compacted reflectors change nothing
    # but the cost: the same matrix reaches sytrd, the same reflectors
    # reach ormqr, and the caller's Q is left as it was
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

    expected = _tridiagonal_solve(np.array(Q), rho, x)
    assume(expected is not None)  # a zero pivot moves the shift, as the residual test checks

    y = _shift_solve(RayleighObjective(Q), rho, x)

    assert y.tobytes() == expected.tobytes()
    assert Q.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [3, 60, 250])
def test_shift_solve_runs_the_blocked_factorization(monkeypatch, n):
    # the factorization Q = P T P^T in 8-column panels, lwork / n: scipy's
    # default workspace, n, runs the unblocked code (sytrd's blocked code
    # needs panels of 2 columns or more), and sytrd_lwork's 32-column
    # panels are slower at the benchmark's sizes; no test of the answer
    # sees either
    seen = []
    kernels = _scipy("lapack")
    dsytrd = kernels.dsytrd

    def recording(a, **kwargs):
        assert kwargs.get("lower") == 1
        seen.append(kwargs.get("lwork"))
        return dsytrd(a, **kwargs)

    monkeypatch.setattr(kernels, "dsytrd", recording)
    rng = np.random.default_rng(n)
    _shift_solve(RayleighObjective(rand_sym(rng, n)), 0.25, rand_unit(rng, n))
    assert seen == [8 * n]


def _counting(monkeypatch, *names):
    """``{name: 0}`` for LAPACK kernels ``names``, each counting its calls from here on."""
    calls = dict.fromkeys(names, 0)
    kernels = _scipy("lapack")
    for name in names:
        kernel = getattr(kernels, name)

        def counting(*args, name=name, kernel=kernel, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counting)
    return calls


def _tridiagonal(rng, n, kind, zeros):
    """A random tridiagonal ``Q``, or a diagonal one (``kind="diagonal"``),
    with negative zeros on about a third of its entries below the
    subdiagonal, and on its two diagonals too when ``zeros="diagonals"``."""
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1) if kind == "tridiagonal" else np.zeros(n - 1)
    if zeros == "diagonals":
        d[rng.random(n) < 0.2] = -0.0
        e[rng.random(n - 1) < 0.3] = -0.0
    Q, i = np.zeros((n, n)), np.arange(n)
    below = np.tril(rng.random((n, n)) < 0.3, -2)
    Q[below] = Q[below.T] = -0.0
    Q[i, i], Q[i[1:], i[:-1]], Q[i[:-1], i[1:]] = d, e, e
    return Q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["diagonal", "tridiagonal"]),
       zeros=st.sampled_from(["below", "diagonals"]))
def test_sytrd_leaves_a_tridiagonal_q_as_it_is(n, seed, kind, zeros):
    # why a tridiagonal Q skips its reduction: sytrd finds every tau = 0, so
    # P = I, and returns Q's own diagonals, bit for bit but for the sign of a
    # zero on them, which its blocked code (past 32 columns here) may drop;
    # the skip keeps Q's own, and its shift solve is sytrd's bit for bit
    rng = np.random.default_rng(seed)
    Q = _tridiagonal(rng, n, kind, zeros)
    _, d, e, tau, info = lapack.dsytrd(Q.copy(order="F"), lower=1, lwork=8 * n)
    assert info == 0 and np.all(tau == 0.0)
    V, no_tau, own_d, own_e = RayleighObjective(Q)._reduction()
    assert V is None and no_tau is None
    for got, own, want in ((d, own_d, np.diag(Q)), (e, own_e, np.diag(Q, -1))):
        assert own.tobytes() == want.tobytes()
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()  # -0 + 0 is +0
        if zeros == "below":
            assert got.tobytes() == want.tobytes()
    x = rand_unit(rng, n)
    expected = _tridiagonal_solve(np.array(Q), 0.25, x)
    assume(expected is not None)
    assert _shift_solve(RayleighObjective(Q), 0.25, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [4, 60])
def test_a_lone_entry_off_column_0_is_reduced(monkeypatch, n):
    # Q[2:, 0] is zero but Q[n - 1, 1] is not: Q is not tridiagonal, and a
    # check of column 0 alone would take it as its own T
    rng = np.random.default_rng(n)
    Q = _tridiagonal(rng, n, "tridiagonal", "below")
    Q[n - 1, 1] = Q[1, n - 1] = 1.0
    calls = _counting(monkeypatch, "dsytrd")
    x = rand_unit(rng, n)
    y = _shift_solve(RayleighObjective(Q), 0.25, x)
    assert calls == {"dsytrd": 1}
    A = Q - 0.25 * np.eye(n)
    assert np.linalg.norm(A @ y - x) <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(y)


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal"])
def test_a_tridiagonal_q_is_never_reduced(monkeypatch, kind):
    # a tridiagonal Q is its own T: no driver, no generic newton on its
    # objective and no shift solve on it calls sytrd, or ormqr to apply a P
    calls = _counting(monkeypatch, "dsytrd", "dormqr")
    rng = np.random.default_rng(5)
    Q = _tridiagonal(rng, 40, kind, "below")
    x0 = rand_unit(rng, 40)
    for solver in (rqi, newton_rayleigh, cg_extreme_eigen):
        assert solver(Q, x0).converged
    assert newton(RayleighObjective(Q), x0).converged
    _shift_solve(RayleighObjective(Q), 0.25, x0)
    rayleigh_newton_step(Q, x0)
    assert calls == {"dsytrd": 0, "dormqr": 0}


@pytest.mark.parametrize("solver", ["rqi", "newton_rayleigh", "newton"])
def test_one_reduction_per_solve(monkeypatch, solver):
    # every shift of one eigen solve reuses the objective's one reduction
    calls = _counting(monkeypatch, "dsytrd", "dsytrf")
    rng = np.random.default_rng(60)
    n = 60
    Q = rand_sym(rng, n)
    x0 = rand_unit(rng, n)
    if solver == "newton":
        objective = RayleighObjective(Q)
        trace = newton(objective, x0, SolverConfig(max_iter=60, grad_tol=2e-10 * objective.Q_fro))
    else:
        run = {"rqi": rqi, "newton_rayleigh": newton_rayleigh}[solver]
        trace = run(Q, x0, SolverConfig(max_iter=60)).trace
    assert trace.converged
    assert trace.iterations >= 3
    assert calls == {"dsytrd": 1, "dsytrf": 0}


@pytest.mark.parametrize("solver", [rqi, newton_rayleigh])
def test_shift_drivers_step_on_the_tridiagonal(monkeypatch, solver):
    # after one sytrd a step is one gtsv on T, O(n): two ormqr calls per
    # solve, P^T on the start and P on the block of stored points, however
    # many steps it takes (the dense solve takes two per step)
    calls = _counting(monkeypatch, "dsytrd", "dormqr", "dgtsv")
    rng = np.random.default_rng(60)
    Q, x0 = rand_sym(rng, 60), rand_unit(rng, 60)
    for max_iter in (1, 60):
        calls.update(dict.fromkeys(calls, 0))
        res = solver(Q, x0, SolverConfig(max_iter=max_iter))
        assert res.iterations == 1 if max_iter == 1 else res.converged and res.iterations >= 4
        assert calls == {"dsytrd": 1, "dormqr": 2, "dgtsv": res.iterations}


@pytest.mark.parametrize("m", [1, 5, 40, 130])
def test_shift_solve_on_a_zero_diagonal_indefinite_matrix(m):
    # [[0, B], [B^T, 0]] has eigenvalues +-sigma(B), all of modulus 1 to 2
    rng = np.random.default_rng(m)
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    B = U * rng.uniform(1.0, 2.0, size=m)  # singular values in [1, 2]
    Q = np.block([[np.zeros((m, m)), B], [B.T, np.zeros((m, m))]])
    x = rand_unit(rng, 2 * m)

    y = _shift_solve(RayleighObjective(Q), 0.0, x)

    ref = np.linalg.solve(Q, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


_BAD = {"non-square": (np.ones((3, 2)), "square"),
        "inf": (np.diag([3.0, np.inf, 1.0]), "finite"),
        "non-symmetric": (np.diag([3.0, 2.0, 1.0]) + np.eye(3, k=1) * 1e-3, "symmetric"),
        "1-by-1": (np.ones((1, 1)), "dimension"),
        "overflow": (np.full((3, 3), 1e154), "overflows")}


@pytest.mark.parametrize("bad", sorted(_BAD))
@pytest.mark.parametrize("entry", ["shift_solve", "rayleigh_newton_step"])
def test_public_shift_entry_points_reject_a_bad_matrix(entry, bad):
    # a non-symmetric Q would otherwise solve the transposed system; the
    # rest are rejected as every objective and driver rejects them; a shift
    # solve runs on the objective its caller keeps, which checks Q
    Q, match = _BAD[bad]
    x = normalized_start(np.ones(Q.shape[0]))
    call = {"shift_solve": lambda: _shift_solve(RayleighObjective(Q), 0.5, x),
            "rayleigh_newton_step": lambda: rayleigh_newton_step(Q, x)}[entry]
    with pytest.raises(ValueError, match=match):
        call()


_Q3 = np.diag([3.0, 2.0, 1.0])
_X3 = np.ones(3) / np.sqrt(3.0)
_SOLVE3 = RayleighObjective(_Q3)
#: a bad shift or point at the shift entries -> (call, exception, message)
_BAD_ARGUMENTS = {
    "nan shift": (lambda: _shift_solve(_SOLVE3, np.nan, _X3), ValueError, "shift must be finite"),
    "inf shift": (lambda: _shift_solve(_SOLVE3, np.inf, _X3), ValueError, "shift must be finite"),
    "newton nan x": (lambda: rayleigh_newton_step(_Q3, [np.nan, 0.0, 0.0]), NotUnitDirection, None),
    "newton x off the sphere": (lambda: rayleigh_newton_step(_Q3, [2.0, 0.0, 0.0]),
                                NotUnitDirection, None),
}


@pytest.mark.parametrize("bad", sorted(_BAD_ARGUMENTS))
def test_public_shift_entry_points_reject_a_bad_shift_or_point(bad):
    # LAPACK turns each of these into a wrong vector, a LinAlgError or an
    # argument error on stderr, and a nan shift would never leave the
    # spectrum: they are rejected before any solve
    call, error, match = _BAD_ARGUMENTS[bad]
    with pytest.raises(error, match=match):
        call()


def test_the_private_shift_solve_rejects_a_nan_shift():
    # the drivers pass rho unchecked: a nan shift would never leave the
    # spectrum, so the solve raises rather than nudge it without end
    with pytest.raises(ValueError, match="shift must be finite, got nan"):
        _shift_solve(RayleighObjective(_Q3), float("nan"), _X3)


@pytest.mark.parametrize("n", [2, 30, 250])
def test_an_exactly_singular_shift_solves_without_an_svd(monkeypatch, n):
    # Q = diag(A, c) with a dense A: the reduction keeps the last row and
    # column as they are, so T - c I has an exactly zero last pivot; the
    # nudged shift gives a finite y along e_n, with c outside A's spectrum
    def no_svd(*args, **kwargs):
        raise AssertionError("the shift solve ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(n)
    A = rand_sym(rng, n - 1)
    c = float(np.abs(A).sum()) + 1.0
    Q = np.zeros((n, n))
    Q[:-1, :-1] = A
    Q[-1, -1] = c
    x = rand_unit(rng, n)

    y = _shift_solve(RayleighObjective(Q), c, x)

    assert np.all(np.isfinite(y))
    assert np.linalg.norm(y[:-1]) <= 1e-12 * abs(y[-1])


_NON_FINITE_SHIFT = r"""
import warnings

import numpy as np
from riemopt.sphere import RayleighObjective, _shift_solve

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        _shift_solve(RayleighObjective(np.diag([3.0, 2.0, 1.0])), {rho}, np.array({x}))
    except ValueError as exc:
        print(exc)
print(len(caught), "warnings")
"""


@pytest.mark.parametrize("rho, x", [("np.nan", "[0.6, 0.8, 0.0]"),
                                    ("2.0", "[np.inf, 0.0, 0.0]")])
def test_a_non_finite_shift_raises(rho, x):
    # the private solve a driver calls: a NaN shift never leaves the
    # spectrum, and an inf in x keeps y non-finite until the doubled nudge
    # overflows, which must not warn; the solve used to loop without end,
    # so it runs in a subprocess with a timeout
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _NON_FINITE_SHIFT.format(rho=rho, x=x)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("shift must be finite")
    assert done.stdout.splitlines()[1] == "0 warnings"


def test_threads_solving_on_one_reduction_match_a_serial_solve():
    # ormqr writes each reflector's leading entry while it applies it, with
    # the GIL released, so threads sharing one objective's reflectors race
    # on that entry unless it already holds the 1 that ormqr writes
    rng = np.random.default_rng(7)
    n = 400  # long enough for the threads to overlap inside ormqr
    objective = RayleighObjective(rand_sym(rng, n))
    x = rand_unit(rng, n)
    want = _shift_solve(objective, 0.25, x).tobytes()
    V = objective._reduction()[0].tobytes()
    differ = []

    def run(barrier):
        barrier.wait(timeout=60)
        differ.extend(k for k in range(150) if _shift_solve(objective, 0.25, x).tobytes() != want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(4)
        threads = [threading.Thread(target=run, args=(barrier,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert differ == []
    assert objective._reduction()[0].tobytes() == V


def test_fig1_newton_runs_without_an_svd(monkeypatch):
    # fig1's diagonal Q often lands rho exactly on an eigenvalue (four shifts
    # over these six runs); each stays on the kept reduction, with no
    # n-square SVD, and the runs keep their iteration counts
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    iterations = []
    for seed in range(6):
        report, _ = run_fig1(ExperimentSpec("fig1", n=250, method="newton", init="random",
                                            seed=seed))
        assert report.converged
        iterations.append(report.iterations)
    assert calls == []
    assert iterations == [6, 7, 5, 6, 7, 10]


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
    y = _shift_solve(RayleighObjective(Q), rho, x)
    assert 0.0 < abs(float(x @ y)) < 1e-14 * np.linalg.norm(y)
    with pytest.raises(StepDeclined, match="vanishes; no tangent step"):
        rayleigh_newton_step(Q, x)

    res = newton_rayleigh(Q, x, SolverConfig(max_iter=5))
    assert res.converged
    np.testing.assert_allclose(np.abs(res.eigenvector), [1.0, 0.0], atol=1e-12)
    trace = newton(RayleighObjective(Q), x, SolverConfig(max_iter=5))
    assert trace.converged
    np.testing.assert_allclose(np.abs(trace.points[-1]), [1.0, 0.0], atol=1e-12)


def test_an_eigenvalue_shift_orthogonal_to_x_takes_the_newton_step():
    # rho = 1 exactly, an eigenvalue whose eigenvector e_2 is orthogonal to x:
    # T - rho I has an exactly zero pivot, and the moved shift gives the
    # Newton step in the plane of e_1 and e_3, where the pivot is -2/3
    Q = np.diag([4.0, 1.0, 0.0])
    x = np.array([0.5, 0.0, np.sqrt(0.75)])
    assert float(x @ (Q @ x)) == 1.0
    h = rayleigh_newton_step(Q, x)
    np.testing.assert_allclose(h, [-0.75, 0.0, 0.5 * np.sqrt(0.75)], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["exact", "golden"])
def test_newton_rayleigh_fallback_takes_the_configured_search(kind):
    # the tiny-pivot start above: the first step is the gradient fallback
    Q = np.diag([1.0, -1.0])
    x = normalized_start(np.array([1.0, 1.0 + 1e-15]))
    record, points = recording()
    res = newton_rayleigh(Q, x, SolverConfig(max_iter=5, line_search=kind), error_fn=record)
    objective = RayleighObjective(Q)
    ls = line_minimize_geodesic(objective, x, -objective.gradient(x),
                                SolverConfig(line_search=kind))
    assert res.trace.steps[0] == ls.step
    np.testing.assert_array_equal(points[1], ls.point)


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


@pytest.mark.parametrize("n", [3, 4, 64, 65, 129, 300])
def test_reflectors_moved_in_blocks_match_a_move_per_column(n):
    # the reduction moves sytrd's reflector columns to a leading dimension of
    # n - 1 in blocks of columns; one column at a time is the reference
    Q = rand_sym(np.random.default_rng(n), n)
    A, d, e, tau, _ = lapack.dsytrd(Q.copy(order="F"), lower=1, lwork=8 * n)
    m = n - 1
    flat = A.ravel(order="F")
    for j in range(m):
        flat[j * m:(j + 1) * m] = flat[j * n + 1:j * n + 1 + m]
    flat[:m * m:m + 1] = 1.0
    want = (flat[:m * m].reshape((m, m), order="F"), tau, d, e)
    got = RayleighObjective(Q)._reduction()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].flags.f_contiguous
    root = got[0]
    while root.base is not None:
        root = root.base
    assert root.size == n * n  # moved within sytrd's one n^2 buffer
