"""Solver invariants on the Rayleigh quotient over random sizes and seeds:
``newton_rayleigh`` is the generic ``newton``, and steepest descent and
conjugate gradient with the exact line search never raise the value they
minimize beyond round-off."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rand_sym
from riemopt import (
    RayleighObjective,
    SolverConfig,
    conjugate_gradient,
    newton,
    newton_rayleigh,
    steepest_descent,
)

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
