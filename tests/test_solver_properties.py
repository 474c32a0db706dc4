"""Solver invariants over random sizes and seeds: ``newton_rayleigh`` is
the generic ``newton`` on the tridiagonal ``T`` of ``Q = P T P^T``, the eigen
drivers report ``rho`` and the residual on ``T`` bit for bit, within
round-off of ``rho = x^T (Qx)`` and ``|Qx - rho x|``, and the latter as the
last error, the drivers agree with their loops on the dense ``Q``, steepest
descent and conjugate gradient with the exact line search never raise the
value they minimize beyond round-off, steepest descent (conjugate gradient
with a reset at every step) runs the loop of the reference steepest descent
point for point, a loop on the sphere reports convergence exactly when it
ends below its stop tolerance, and the Rayleigh quotient's round-off floor
sits above the gradient norms that Newton and quotient iteration reach at
round-off.  Every solver and driver calls its ``error_fn`` once per row, in
row order, on that row's iterate, so an error function that records them
sees every iterate, of which the trace keeps the first and the last."""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    experiment_objective,
    midpoint_start,
    rand_rotation,
    rand_sym,
    rand_unit,
    recording,
    reduced_eigen_trace,
    reference_steepest_descent,
)
from riemopt import (
    BrockettObjective,
    RayleighObjective,
    SolverConfig,
    cg_extreme_eigen,
    conjugate_gradient,
    newton,
    newton_rayleigh,
    rayleigh_newton_step,
    rqi,
    sphere_exp,
    steepest_descent,
)
from riemopt import eigensolvers, solvers
from riemopt.errors import LineSearchFailed, NonFinite, SolverError
from riemopt.sphere import shift_solve

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


def _residual(Q):
    return lambda p: float(np.linalg.norm(Q @ p - (p @ (Q @ p)) * p))


#: each eigen driver's solver, as a loop to run on a Rayleigh objective
_LOOPS = {rqi: partial(solvers._newton, step=eigensolvers._rqi_step), newton_rayleigh: newton,
          cg_extreme_eigen: conjugate_gradient}


def _config(Q, driver):
    """The driver's config: ``grad_tol`` read relative to ``|Q|_F``, and the
    exact search for conjugate gradient."""
    scale = max(float(np.linalg.norm(Q)), np.finfo(float).tiny)
    return SolverConfig(grad_tol=2.0 * 1e-12 * scale,
                        line_search="exact" if driver is cg_extreme_eigen else "bracket")


def _assert_same_trace(got, want, got_points, want_points):
    """The same rows and kept ends bit for bit, and the same iterates, every
    one as recorded."""
    assert np.array(got_points).tobytes() == np.array(want_points).tobytes()
    assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
    for field in ("values", "grad_norms", "errors", "steps", "converged"):
        assert getattr(got, field) == getattr(want, field)


def _iterates(driver, Q, x0):
    """Every iterate of ``driver`` on ``Q`` from ``x0``, as a recording
    ``error_fn`` sees them, a solver error's partial run included."""
    record, points = recording()
    _outcome(lambda: driver(Q, x0, error_fn=record))
    return points


@PROPERTY
@given(n=st.integers(5, 120), seed=SEEDS)
def test_newton_rayleigh_is_the_generic_newton(n, seed):
    # the generic newton on the quotient of T, Q = P T P^T, from P^T x0/|x0|:
    # newton_rayleigh's trace is the one reduced_eigen_trace defines on that
    # loop, its points P times the loop's, and a caller's error_fn runs on those
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)

    for error_fn in (None, lambda p: abs(float(p[-1]))):  # P fixes coordinate 1 only
        res = newton_rayleigh(Q, x0, error_fn=error_fn)
        want, points, failure = reduced_eigen_trace(newton, Q, x0, _config(Q, newton_rayleigh),
                                                    error_fn)
        assert failure is None
        _assert_same_trace(res.trace, want, _iterates(newton_rayleigh, Q, x0), points)
        np.testing.assert_array_equal(res.eigenvector, points[-1])
        assert res.eigenvalue == res.trace.values[-1]


def _symmetric(rng, n, kind):
    """An exactly symmetric ``Q``: random, zero, diagonal, or ``U diag(lam) U^T``
    for a random orthogonal ``U`` and three values ``lam`` repeated exactly,
    or clustered, each spread by 1e-14."""
    if kind in ("random", "zero", "diagonal"):
        return {"random": rand_sym, "zero": lambda rng, n: np.zeros((n, n)),
                "diagonal": lambda rng, n: np.diag(rng.normal(size=n))}[kind](rng, n)
    lam = rng.normal(size=3)[rng.integers(0, 3, size=n)]
    if kind == "clustered":
        lam = lam + 1e-14 * rng.normal(size=n)
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = (U * lam) @ U.T
    return (A + A.T) / 2.0


def _outcome(solve):
    """The trace a solve returns or its error carries, and the error's type."""
    try:
        return solve(), None
    except SolverError as exc:
        return exc.trace, type(exc)


def _near(rng, Q, angle):
    """A unit start at ``angle`` from a random eigenvector of ``Q``."""
    u = np.linalg.eigh(Q)[1][:, rng.integers(len(Q))]
    r = rng.normal(size=len(Q))
    r -= (u @ r) * u
    return np.cos(angle) * u + np.sin(angle) * r / np.linalg.norm(r)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 300), seed=SEEDS,
       kind=st.sampled_from(["random", "repeated", "clustered", "zero", "diagonal"]))
def test_reduced_drivers_agree_with_the_dense_loop(n, seed, kind):
    # the drivers iterate on T and map back by P; the dense reference runs
    # the same loops on RayleighObjective(Q), the shift drivers' with the
    # dense shift solve (two ormqr and one gtsv per step).  On a diagonal Q,
    # its own T, they are one loop, bit for bit.  Elsewhere they differ by
    # round-off, which the first steps from a random start can grow into
    # another eigenpair, so the shift drivers' limits and step counts are
    # compared from a start near an eigenvector.  There too, at a repeated or
    # clustered eigenvalue, Newton's step inside the eigenspace is set by
    # round-off, and its count varies by several steps in either basis;
    # quotient iteration's does not.  Conjugate gradient ascends to the top
    # eigenvalue from either start, in step counts that round-off moves.
    # Every value and error reported lies within 4 sqrt(n) eps |Q|_F of the
    # dense formula on the point reported (0.6 sqrt(n) eps |Q|_F at most over
    # 300 solves), and the last error is the dense residual
    rng = np.random.default_rng(seed)
    Q = _symmetric(rng, n, kind)
    scale = float(np.linalg.norm(Q))
    bound = 4.0 * np.sqrt(n) * EPS * scale
    dense = RayleighObjective(Q)
    for start in ("random", "near"):
        x0 = rng.normal(size=n) if start == "random" else _near(rng, Q, 0.01)
        x = x0 / np.linalg.norm(x0)
        for driver, loop in _LOOPS.items():
            got, got_error = _outcome(lambda: driver(Q, x0).trace)
            points = _iterates(driver, Q, x0)
            record, want_points = recording(_residual(Q))
            want, want_error = _outcome(lambda: loop(dense, x, _config(Q, driver), record))
            assert got_error is want_error
            assert got.converged == want.converged
            assert len(points) == len(got)
            assert all(abs(np.linalg.norm(p) - 1.0) <= 1e-14 for p in points)
            for p, value, error in zip(points, got.values, got.errors):
                assert abs(value - float(p @ (Q @ p))) <= bound
                assert abs(error - _residual(Q)(p)) <= bound
            assert got.errors[-1] == _residual(Q)(got.points[-1])
            if got.converged:
                p = got.points[-1]
                assert np.linalg.norm(Q @ p - got.values[-1] * p) <= 1e-10 * scale
            if start == "near" or driver is cg_extreme_eigen:
                assert abs(got.values[-1] - want.values[-1]) <= 1e-12 * scale
            if start == "near" and (driver is rqi or driver is newton_rayleigh
                                    and kind not in ("repeated", "clustered")):
                assert abs(got.iterations - want.iterations) <= 1
            if kind == "diagonal":
                _assert_same_trace(got, want, points, want_points)


@PROPERTY
@given(n=st.integers(2, 120), seed=SEEDS, driver=st.sampled_from([rqi, cg_extreme_eigen]))
def test_default_error_is_the_residual_bit_for_bit(n, seed, driver):
    # on a reduced Q, as reduced_eigen_trace defines it: the residual
    # |Tz - rho z| of each loop point but the last, whose error is the dense
    # |Qx - rho x| of the eigenvector; a 2-by-2 Q is tridiagonal, its own T,
    # and every row's value and error are the dense ones
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)
    res = driver(Q, x0)
    points = _iterates(driver, Q, x0)
    if n == 2:
        assert res.trace.errors == [_residual(Q)(p) for p in points]
        assert res.trace.values == [float(p @ (Q @ p)) for p in points]
    else:
        want, want_points, failure = reduced_eigen_trace(_LOOPS[driver], Q, x0, _config(Q, driver))
        assert failure is None
        _assert_same_trace(res.trace, want, points, want_points)
    assert res.trace.errors[-1] == _residual(Q)(res.eigenvector)


@PROPERTY
@given(n=st.integers(2, 30), seed=SEEDS, which=st.sampled_from(["max", "min"]),
       solver=st.sampled_from([steepest_descent, conjugate_gradient]))
def test_exact_search_never_raises_the_value(n, seed, which, solver):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    objective = RayleighObjective(Q, which)
    scale = float(np.linalg.norm(Q))
    config = SolverConfig(grad_tol=1e-12 * scale, max_iter=200, line_search="exact")
    x0 = rng.normal(size=n)
    trace = solver(objective, x0 / np.linalg.norm(x0), config)
    # the trace reports rho; the solver minimizes -rho for 'max'
    value = np.asarray(trace.values) * (-1.0 if which == "max" else 1.0)
    assert np.all(np.diff(value) <= 10.0 * EPS * scale)


def _assert_same_descent(objective, p0, config):
    record, expected_points = recording(objective.error_metric)
    expected, failure = reference_steepest_descent(objective, p0, config, record)
    record, points = recording(objective.error_metric)
    if failure is None:
        trace = steepest_descent(objective, p0, config, record)
    else:
        with pytest.raises(LineSearchFailed) as info:
            steepest_descent(objective, p0, config, record)
        assert str(info.value) == str(failure)
        trace = info.value.trace
    assert len(trace) == len(expected) == len(points) == len(expected_points)
    for p, q in zip(points + trace.points, expected_points + expected.points):
        np.testing.assert_array_equal(p, q)
    for field in ("values", "grad_norms", "errors", "steps"):
        assert getattr(trace, field) == getattr(expected, field)
    assert trace.converged == expected.converged


@PROPERTY
@given(n=st.integers(2, 30), seed=SEEDS, which=st.sampled_from(["max", "min"]),
       kind=st.sampled_from(["exact", "golden"]))
def test_steepest_descent_is_the_reference_loop_on_the_sphere(n, seed, which, kind):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)
    config = SolverConfig(grad_tol=1e-12 * float(np.linalg.norm(Q)), max_iter=60,
                          line_search=kind)
    _assert_same_descent(RayleighObjective(Q, which), x0 / np.linalg.norm(x0), config)


@PROPERTY
@given(n=st.integers(2, 8), seed=SEEDS)
def test_steepest_descent_is_the_reference_loop_on_so_n(n, seed):
    rng = np.random.default_rng(seed)
    objective = BrockettObjective(rand_sym(rng, n), np.diag(np.arange(n, 0, -1.0)))
    config = SolverConfig(max_iter=60, line_search="estimate")
    _assert_same_descent(objective, rand_rotation(rng, n), config)


def _loop_trace(loop, Q, x0, config):
    """Trace of ``loop`` on ``Q`` from the unit ``x0``; ``newton`` runs on
    the maximized Rayleigh quotient."""
    if loop is newton:
        return newton(RayleighObjective(Q), x0, config)
    return loop(Q, x0, config).trace


def _stop_tol(loop, Q, grad_tol):
    """Gradient norm below which ``loop`` stops as converged: the generic
    ``newton`` reads ``grad_tol`` as absolute, the eigen drivers as a
    residual relative to ``|Q|_F``; all of them read the floor."""
    floor = RayleighObjective(Q).gradient_floor
    if loop is newton:
        return max(grad_tol, floor)
    return max(2.0 * grad_tol * float(np.linalg.norm(Q)), floor)


@PROPERTY
@given(n=st.integers(3, 40), seed=SEEDS, kind=st.sampled_from(["random", "midpoint"]),
       loop=st.sampled_from([newton, newton_rayleigh, cg_extreme_eigen, rqi]),
       grad_tol=st.sampled_from([1e-30, 1e-14, 1e-10, 1e-6]), max_iter=st.integers(0, 30))
def test_converged_means_below_the_stop_tolerance(n, seed, kind, loop, grad_tol, max_iter):
    rng = np.random.default_rng(seed)
    if kind == "random":
        Q, x0 = rand_sym(rng, n), rand_unit(rng, n)
    else:
        i = int(rng.integers(n - 2))
        Q, x0 = np.diag(np.arange(n, 0, -1.0)), midpoint_start(n, i, i + 2)
    config = SolverConfig(grad_tol=grad_tol, max_iter=max_iter)
    try:
        trace = _loop_trace(loop, Q, x0, config)
    except SolverError as exc:
        assert not exc.trace.converged
        return
    tol = _stop_tol(loop, Q, grad_tol)
    if trace.converged:
        assert trace.grad_norms[-1] < tol
    else:  # the converse: only the budget ends an unconverged run
        assert trace.iterations == max_iter
        assert trace.grad_norms[-1] >= tol


def _gradients_past_the_stop(loop, Q, x, steps=3):
    """Gradient norms after ``steps`` more updates of ``loop`` from ``x``,
    with no stopping rule."""
    objective = RayleighObjective(Q)
    norms = []
    for _ in range(steps):
        if loop is rqi:
            y = shift_solve(Q, float(x @ Q @ x), x)
            x = y / np.linalg.norm(y)
        else:
            H = rayleigh_newton_step(Q, x)
            if not np.any(H):
                break
            x = sphere_exp(x, H)
        norms.append(float(np.linalg.norm(objective.gradient(x))))
    return norms


def _assert_round_off_stop(loop, Q, x0):
    # the loop stops converged, not at its budget, though grad_tol is far
    # below round-off; further updates stay at most a third of the floor.
    # The stop itself may land anywhere below the floor: the last Newton
    # or quotient step before round-off can end just under it.
    floor = RayleighObjective(Q).gradient_floor
    res = loop(Q, x0, SolverConfig(grad_tol=1e-30))
    assert res.converged
    assert res.trace.grad_norms[-1] <= floor
    assert max(_gradients_past_the_stop(loop, Q, res.eigenvector), default=0.0) <= floor / 3.0


def _floor_problem(rng, n, kind):
    Q = rand_sym(rng, n)
    if kind == "scaled":
        Q = 1e6 * Q
    elif kind == "diagonal":
        Q = np.diag(np.diag(Q))
    return Q, rand_unit(rng, n)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 120), seed=SEEDS, kind=st.sampled_from(["dense", "scaled", "diagonal"]),
       loop=st.sampled_from([rqi, newton_rayleigh]))
def test_round_off_stop_lies_below_the_floor(n, seed, kind, loop):
    _assert_round_off_stop(loop, *_floor_problem(np.random.default_rng(seed), n, kind))


@pytest.mark.parametrize("loop", [rqi, newton_rayleigh])
def test_round_off_stop_lies_below_the_floor_at_n1000(loop):
    _assert_round_off_stop(loop, *_floor_problem(np.random.default_rng(1000), 1000, "dense"))


def _failing_after(rows):
    """``solvers._gradient``, but raising :class:`NonFinite` from its call
    ``rows + 1`` on, so a loop stops there with a partial trace of ``rows``
    rows; None never raises."""
    calls, gradient = 0, solvers._gradient

    def wrapped(objective, p):
        nonlocal calls
        calls += 1
        if rows is not None and calls > rows:
            raise NonFinite("stopped by the test")
        return gradient(objective, p)

    return wrapped


#: (run, objective) pairs: the solvers on the sphere and on SO(n), the drivers on a dense Q
_RUNS = [(solver, kind) for solver in (steepest_descent, conjugate_gradient, newton)
         for kind in ("sphere", "fig2")]
_RUNS += [(newton, "jacobi"), (rqi, "dense"), (newton_rayleigh, "dense"),
          (cg_extreme_eigen, "dense")]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), seed=SEEDS, run=st.sampled_from(_RUNS),
       rows=st.one_of(st.none(), st.integers(0, 6)))
def test_a_recording_error_fn_sees_every_row_in_order(n, seed, run, rows):
    # a trace keeps the first and the last iterate; the error function sees
    # each row's iterate in row order, a run stopped by a solver error
    # included, and recording there moves no bit of any column.  The row's
    # value read at the recorded point ties the point to its row: bit for
    # bit for the solvers, within round-off for a driver, whose values the
    # loop on T reports
    rng = np.random.default_rng(seed)
    solver, kind = run
    if kind == "dense":
        Q, x0 = rand_sym(rng, n), rng.normal(size=n)
        error_fn = _residual(Q)
        bound = 4.0 * np.sqrt(n) * EPS * float(np.linalg.norm(Q))

        def solve(fn):
            return solver(Q, x0, error_fn=fn).trace

        def check_value(p, value):
            assert abs(float(p @ (Q @ p)) - value) <= bound
    else:
        if kind == "sphere":
            objective, p0 = RayleighObjective(rand_sym(rng, n)), rand_unit(rng, n)
            config = SolverConfig(max_iter=40, line_search="exact")
        else:
            m = 2 + n % 7  # SO(m) for m = 2..8
            objective = experiment_objective(kind, m, seed % 1000)[0]
            p0 = rand_rotation(rng, m)
            search = "estimate" if kind == "fig2" else "bracket"  # Jacobi has no estimate
            config = SolverConfig(max_iter=30, line_search=search)
        error_fn = objective.error_metric

        def solve(fn):
            return solver(objective, p0, config, fn)

        def check_value(p, value):
            assert objective.report_value(p) == value

    outcomes = []
    record, points = recording(error_fn)
    for fn in (None, error_fn, record):
        with mock.patch.object(solvers, "_gradient", _failing_after(rows)):
            outcomes.append(_outcome(lambda: solve(fn)))
    (default, default_error), (plain, plain_error), (got, got_error) = outcomes
    assert got_error is plain_error is default_error
    if rows is not None:  # the stop leaves the rows before it
        assert len(got) == rows if got_error is NonFinite else len(got) <= rows
    assert len(points) == len(got) == len(plain) == len(default)
    ends = points[:1] + points[1:][-1:]
    for trace in (got, plain, default):
        assert np.array(trace.points).tobytes() == np.array(ends).tobytes()
    for field in ("values", "grad_norms", "errors", "steps", "converged"):
        assert getattr(got, field) == getattr(plain, field)
        if field != "errors":  # a driver's default errors are the loop's on T
            assert getattr(got, field) == getattr(default, field)
    for p, value in zip(points, got.values):
        check_value(p, value)
