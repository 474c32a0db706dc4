"""Newton on SO(n): the preconditioned inner solve of both objectives, and
the stop at the round-off floor that each objective states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_skew_solve, experiment_objective
from riemopt import BrockettObjective, SolverConfig, newton, so_geodesic
import riemopt.rotation as rotation
import riemopt.solvers as solvers
from riemopt.errors import StepDeclined
from riemopt.experiments import ExperimentSpec, fig2_matrices, jacobi_matrices, run_experiment
from riemopt.sampling import random_rotation, random_unit_skew, rng_from_seed


def _near(T_hat, seed, eps):
    """The CLI's ``near:<eps>`` start for ``seed``."""
    n = T_hat.shape[0]
    return so_geodesic(T_hat, random_unit_skew(rng_from_seed(seed + 1), n), eps)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["fig2", "jacobi"]), n=st.integers(8, 30),
       seed=st.integers(0, 2**16), eps=st.sampled_from([1e-3, 1e-2, 1e-1]))
def test_newton_direction_matches_a_dense_solve_near_the_optimum(kind, n, seed, eps):
    obj, T_hat = experiment_objective(kind, n, seed)
    T = _near(T_hat, seed, eps)
    X = obj.newton_direction(T)
    want = dense_skew_solve(lambda Z: obj.hessian_apply(T, Z), -obj.gradient(T))
    assert np.linalg.norm(X - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["fig2", "jacobi"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_rotation_is_indefinite_and_newton_falls_back(kind, seed, monkeypatch):
    obj, _ = experiment_objective(kind, 10, seed)
    T = random_rotation(np.random.default_rng(100 + seed), 10)
    with pytest.raises(StepDeclined, match="nonpositive curvature"):
        obj.newton_direction(T)
    searches = []
    line_minimize = solvers.line_minimize_geodesic

    def counted(*args, **kwargs):
        searches.append(1)
        return line_minimize(*args, **kwargs)

    monkeypatch.setattr(solvers, "line_minimize_geodesic", counted)
    trace = newton(obj, T, SolverConfig(max_iter=1))
    assert len(searches) == 1
    assert trace.values[1] > trace.values[0]  # the reported f rises


def test_constant_diagonal_gives_no_preconditioner_and_no_nan():
    # every entry 2 (h_i - h_j)(nu_i - nu_j) vanishes when diag(H) is constant
    Q = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(StepDeclined, match="nonpositive curvature"):
        BrockettObjective(Q, np.diag([4.0, 3.0, 2.0, 1.0])).newton_direction(np.eye(4))


@pytest.mark.parametrize("kind", ["fig2", "jacobi"])
def test_one_direction_at_n60_takes_few_inner_iterations(kind, monkeypatch):
    # the unpreconditioned solve took 341 (fig2) and 384 (jacobi) here
    obj, T_hat = experiment_objective(kind, 60, 0)
    T = _near(T_hat, 0, 0.1)
    applies = []
    solve = rotation._solve_definite

    def counted(apply_op, b, *args, **kwargs):
        def op(X):
            applies.append(1)
            return apply_op(X)
        return solve(op, b, *args, **kwargs)

    monkeypatch.setattr(rotation, "_solve_definite", counted)
    obj.newton_direction(T)
    assert 0 < len(applies) <= 20


@pytest.mark.parametrize("experiment", ["fig2", "jacobi"])
@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_newton_at_n60_stops_converged_at_the_round_off_floor(experiment, eps):
    # it used to run all 50 iterations at round-off and report not converged
    report, trace = run_experiment(ExperimentSpec(experiment, n=60, method="newton",
                                                  init="near", init_eps=eps, seed=0))
    Q = (fig2_matrices if experiment == "fig2" else jacobi_matrices)(60, 0)[0]
    assert report.error_message is None
    assert report.converged
    assert report.iterations <= 5
    assert report.final_error <= 1e-12 * np.linalg.norm(Q)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["fig2", "jacobi"]), n=st.integers(5, 80),
       seed=st.integers(0, 2**16), eps=st.sampled_from([1e-2, 1e-1]))
def test_gradient_at_the_round_off_floor_stays_below_half_the_stated_floor(kind, n, seed, eps):
    obj, T_hat = experiment_objective(kind, n, seed)
    floor = obj.gradient_floor
    obj.gradient_floor = 0.0  # keep iterating at round-off
    # six steps: two or three to reach the floor, and fewer than the five
    # growing gradient norms that stop Newton as diverged
    trace = newton(obj, _near(T_hat, seed, eps), SolverConfig(grad_tol=1e-300, max_iter=6))
    g = np.asarray(trace.grad_norms)
    below = np.flatnonzero(g < floor)
    assert below.size > 0
    assert np.all(g[below[0]:] < floor / 2)
