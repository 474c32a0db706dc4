"""The Rayleigh objective's product operator: a diagonal ``Q`` multiplies by
its diagonal in O(n), and the generic solvers on it take the dense products'
iterates bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import DenseRayleigh, rand_sym, rand_unit, recording
from riemopt import RayleighObjective, SolverConfig, newton, steepest_descent
from riemopt.errors import SolverError
from riemopt.sphere import _Tridiagonal


def _bits(trace, points):
    rows = (trace.values, trace.grad_norms, trace.errors, trace.steps)
    return ([np.array(row).tobytes() for row in rows], [p.tobytes() for p in trace.points],
            [p.tobytes() for p in points], trace.converged)


def _run(solver, objective, x0, config):
    """Every row, the kept points, every iterate and the exit of one solve."""
    record, points = recording()
    try:
        return _bits(solver(objective, x0, config, error_fn=record), points), None
    except SolverError as exc:
        return _bits(exc.trace, points), type(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       which=st.sampled_from(["max", "min"]))
def test_a_diagonal_q_runs_the_dense_iterates_bit_for_bit(n, seed, which):
    # repeated, zero and negative entries; each entry of the dense product
    # has at most one nonzero term, so d * x rounds as Q @ x does, but for
    # the sign of a zero entry, which no row or point shows
    rng = np.random.default_rng(seed)
    d = rng.choice([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0], size=n) * rng.choice([1.0, rng.normal()])
    Q, x0 = np.diag(d), rand_unit(rng, n)
    objective = RayleighObjective(Q, which)
    assert isinstance(objective._op, _Tridiagonal)
    assert objective.Q is not objective._op
    for solver, search in ((steepest_descent, "exact"), (steepest_descent, "bracket"),
                           (newton, "exact")):
        config = SolverConfig(max_iter=60, line_search=search)
        got = _run(solver, RayleighObjective(Q, which), x0, config)
        assert got == _run(solver, DenseRayleigh(Q, which), x0, config)


@pytest.mark.parametrize("kind", ["dense", "tridiagonal"])
def test_any_other_q_multiplies_by_q_itself(kind):
    # a three-term product on T rounds differently from Q @ x, so only a
    # diagonal Q takes the O(n) product
    Q = rand_sym(np.random.default_rng(7), 12)
    if kind == "tridiagonal":
        Q = np.triu(np.tril(Q, 1), -1)
    objective = RayleighObjective(Q)
    assert objective._op is objective.Q
    assert (objective._reduced is None) == (kind == "dense")
