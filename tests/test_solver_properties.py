"""Solver invariants over random sizes and seeds: ``newton_rayleigh`` is
the generic ``newton``, steepest descent and conjugate gradient with the
exact line search never raise the value they minimize beyond round-off,
and steepest descent (conjugate gradient with a reset at every step) runs
the loop of the reference steepest descent point for point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rand_rotation, rand_sym, reference_steepest_descent
from riemopt import (
    BrockettObjective,
    RayleighObjective,
    SolverConfig,
    conjugate_gradient,
    newton,
    newton_rayleigh,
    steepest_descent,
)
from riemopt.errors import LineSearchFailed

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


@PROPERTY
@given(n=st.integers(5, 120), seed=SEEDS)
def test_newton_rayleigh_is_the_generic_newton(n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)

    def residual(p):
        return float(np.linalg.norm(Q @ p - (p @ Q @ p) * p))

    res = newton_rayleigh(Q, x0)
    config = SolverConfig(grad_tol=2.0 * 1e-12 * float(np.linalg.norm(Q)))
    trace = newton(RayleighObjective(Q), x0 / np.linalg.norm(x0), config, error_fn=residual)
    assert len(res.trace) == len(trace)
    for p, q in zip(res.trace.points, trace.points):
        np.testing.assert_array_equal(p, q)
    for field in ("values", "grad_norms", "errors", "steps"):
        assert getattr(res.trace, field) == getattr(trace, field)
    assert res.converged == trace.converged
    np.testing.assert_array_equal(res.eigenvector, trace.points[-1])
    assert res.eigenvalue == trace.values[-1]


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
