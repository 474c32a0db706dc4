"""Solver invariants over random sizes and seeds: ``newton_rayleigh`` is
the generic ``newton``, the eigen drivers report ``rho = x^T (Qx)`` and
their default error is the residual ``|Qx - rho x|`` bit for bit, steepest
descent and conjugate gradient with the exact line search never raise the
value they minimize beyond round-off, steepest descent (conjugate gradient
with a reset at every step) runs the loop of the reference steepest descent
point for point, a loop on the sphere reports convergence exactly when it
ends below its stop tolerance, and the Rayleigh quotient's round-off floor
sits above the gradient norms that Newton and quotient iteration reach at
round-off."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    midpoint_start,
    rand_rotation,
    rand_sym,
    rand_unit,
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
from riemopt.errors import LineSearchFailed, SolverError
from riemopt.sphere import shift_solve

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


def _residual(Q):
    return lambda p: float(np.linalg.norm(Q @ p - (p @ (Q @ p)) * p))


@PROPERTY
@given(n=st.integers(5, 120), seed=SEEDS)
def test_newton_rayleigh_is_the_generic_newton(n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)

    res = newton_rayleigh(Q, x0)
    config = SolverConfig(grad_tol=2.0 * 1e-12 * float(np.linalg.norm(Q)))
    trace = newton(RayleighObjective(Q), x0 / np.linalg.norm(x0), config, error_fn=_residual(Q))
    assert len(res.trace) == len(trace)
    for p, q in zip(res.trace.points, trace.points):
        np.testing.assert_array_equal(p, q)
    for field in ("values", "grad_norms", "errors", "steps"):
        assert getattr(res.trace, field) == getattr(trace, field)
    assert res.converged == trace.converged
    np.testing.assert_array_equal(res.eigenvector, trace.points[-1])
    assert res.eigenvalue == trace.values[-1]


@PROPERTY
@given(n=st.integers(2, 120), seed=SEEDS, driver=st.sampled_from([rqi, cg_extreme_eigen]))
def test_default_error_is_the_residual_bit_for_bit(n, seed, driver):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    res = driver(Q, rng.normal(size=n))
    assert res.trace.errors == [_residual(Q)(p) for p in res.trace.points]
    assert res.trace.values == [float(p @ (Q @ p)) for p in res.trace.points]


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
    expected, failure = reference_steepest_descent(objective, p0, config)
    if failure is None:
        trace = steepest_descent(objective, p0, config)
    else:
        with pytest.raises(LineSearchFailed) as info:
            steepest_descent(objective, p0, config)
        assert str(info.value) == str(failure)
        trace = info.value.trace
    assert len(trace) == len(expected)
    for p, q in zip(trace.points, expected.points):
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
