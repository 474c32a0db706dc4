"""Sign symmetries, bit for bit, over random sizes and seeds.

Maximizing ``rho`` on ``Q`` and minimizing it on ``-Q`` minimize the same
function, so the runs agree in every bit but the sign of the reported
value.  ``rho`` is even in ``x``, so the eigen drivers from ``-x0`` visit
the negated points.  ``T -> T S``, for ``S`` a diagonal sign matrix of
determinant 1, maps ``T^T Q T`` to ``S (T^T Q T) S``, so the SO(n) solvers
from ``T0 S`` visit ``T S`` with the same values, norms and steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import experiment_objective, rand_skew, rand_sym
from riemopt import (
    RayleighObjective,
    SolverConfig,
    cg_extreme_eigen,
    conjugate_gradient,
    newton,
    newton_rayleigh,
    rqi,
    steepest_descent,
)
from riemopt.errors import SolverError
from riemopt.rotation import so_geodesic

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=16, deadline=None, derandomize=True)


def _run(solve, *args):
    """The trace of ``solve(*args)`` and the type and message of the
    solver error that ended it, if one did."""
    try:
        return solve(*args), None
    except SolverError as exc:
        return exc.trace, (type(exc), str(exc))


def _assert_same_run(a, b, point_map, value_sign=1.0):
    (ta, ea), (tb, eb) = a, b
    assert ea == eb
    assert len(ta) == len(tb)
    for p, q in zip(ta.points, tb.points):
        assert np.array_equal(point_map(p), q)
    assert [value_sign * v for v in ta.values] == tb.values
    for field in ("grad_norms", "errors", "steps"):
        assert getattr(ta, field) == getattr(tb, field)
    assert ta.converged == tb.converged


@pytest.mark.parametrize("solver, search", [
    (steepest_descent, "exact"), (steepest_descent, "bracket"),
    (conjugate_gradient, "exact"), (conjugate_gradient, "bracket"),
    (newton, "bracket"),
])
@PROPERTY
@given(n=st.integers(2, 30), seed=SEEDS)
def test_max_on_Q_is_min_on_minus_Q(solver, search, n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)
    x0 /= np.linalg.norm(x0)
    config = SolverConfig(grad_tol=1e-12 * float(np.linalg.norm(Q)), max_iter=60,
                          line_search=search)
    _assert_same_run(_run(solver, RayleighObjective(Q, "max"), x0, config),
                     _run(solver, RayleighObjective(-Q, "min"), x0, config),
                     lambda p: p, value_sign=-1.0)


@pytest.mark.parametrize("driver", [rqi, newton_rayleigh, cg_extreme_eigen])
@PROPERTY
@given(n=st.integers(2, 30), seed=SEEDS)
def test_eigen_drivers_from_minus_x0_visit_the_negated_points(driver, n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    x0 = rng.normal(size=n)
    config = SolverConfig(max_iter=60)

    def solve(x):
        return driver(Q, x, config).trace

    _assert_same_run(_run(solve, x0), _run(solve, -x0), lambda p: -p)


def _sign_matrix(rng, n):
    s = rng.choice([-1.0, 1.0], size=n)
    if np.prod(s) < 0.0:
        s[0] = -s[0]
    if np.all(s > 0.0):
        s[:2] = -1.0
    return np.diag(s)


@pytest.mark.parametrize("kind, solver", [
    ("fig2", steepest_descent), ("fig2", conjugate_gradient), ("fig2", newton),
    ("jacobi", newton),
])
@PROPERTY
@given(n=st.integers(2, 8), seed=SEEDS)
def test_so_n_solvers_from_T0_S_visit_T_S(kind, solver, n, seed):
    rng = np.random.default_rng(seed)
    objective, T_hat = experiment_objective(kind, n, seed % 1000)
    T0 = so_geodesic(T_hat, rand_skew(rng, n), 0.1)
    S = _sign_matrix(rng, n)
    line_search = "estimate" if kind == "fig2" else "bracket"
    config = SolverConfig(max_iter=60, line_search=line_search)
    _assert_same_run(_run(solver, objective, T0, config),
                     _run(solver, objective, T0 @ S, config),
                     lambda T: T @ S)
