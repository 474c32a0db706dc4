"""One evaluation per iterate.

The SO(n) objectives keep ``H = T'QT`` for the last point, the Rayleigh
quotient keeps ``Qx`` and ``x^T (Qx)`` in one entry, and
``SpecialOrthogonal.transport`` keeps the half-geodesic ``e^{-tX/2}`` for the
last direction and step.  These tests check that the caches return exactly
what a fresh computation returns, that the solvers form each quantity once
per iterate, and that two threads sharing one objective see no stale entry.
"""

import sys
import threading

import numpy as np
import pytest

from _oracles import rand_skew, rand_sym, rand_unit, recording
from riemopt import (
    BrockettObjective,
    JacobiObjective,
    RayleighObjective,
    SolverConfig,
    conjugate_gradient,
    newton,
    newton_rayleigh,
    steepest_descent,
)
from riemopt import rotation, sphere
from riemopt.experiments import fig2_matrices
from riemopt.rotation import SpecialOrthogonal, so_geodesic, so_transport


def _outcome(method, *args):
    """The method's result, or the type of the error it raises."""
    try:
        return method(*args)
    except Exception as exc:  # a fresh objective must raise the same type
        return type(exc)


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b))


def _rotation_case(rng, make):
    n = 6
    Q, N, T_hat = fig2_matrices(n, 3)
    # near the maximizer Newton's operator is definite, far from it it is not
    points = [so_geodesic(T_hat, rand_skew(rng, n), eps) for eps in (1e-3, 1e-1, 1.0)]
    X = rand_skew(rng, n)
    calls = {
        "value": lambda obj, T: (),
        "report_value": lambda obj, T: (),
        "gradient": lambda obj, T: (),
        "error_metric": lambda obj, T: (),
        "hessian_apply": lambda obj, T: (X,),
        "newton_direction": lambda obj, T: (),
        "step_estimate": lambda obj, T: (-obj.gradient(T),),
    }
    return (lambda: make(Q, N)), points, calls


def _rayleigh_case(rng):
    n = 7
    Q = rand_sym(rng, n)
    points = [rand_unit(rng, n) for _ in range(3)]
    u = rng.normal(size=n)
    calls = {
        "value": lambda obj, x: (),
        "report_value": lambda obj, x: (),
        "gradient": lambda obj, x: (),
        "error_metric": lambda obj, x: (),
        "hessian_apply": lambda obj, x: (u - (x @ u) * x,),
        "newton_direction": lambda obj, x: (),
        "exact_line_step": lambda obj, x: (-obj.gradient(x),),
    }
    return (lambda: RayleighObjective(Q, "max")), points, calls


CASES = {
    "brockett": lambda rng: _rotation_case(rng, BrockettObjective),
    "jacobi": lambda rng: _rotation_case(rng, lambda Q, N: JacobiObjective(Q)),
    "rayleigh": _rayleigh_case,
}


def _call_order(rng, calls, points):
    # every method at every point, then the same calls in a shuffled order,
    # so that the cache is hit, missed and refilled as a golden search does
    order = [(name, i) for name in calls for i in range(len(points))]
    return order + [order[k] for k in rng.permutation(len(order))]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_methods_match_a_fresh_objective(case):
    rng = np.random.default_rng(11)
    build, points, calls = CASES[case](rng)
    points.append(points[0].copy())  # equal values, another array
    shared = build()
    for name, i in _call_order(rng, calls, points):
        p = points[i]
        args = calls[name](build(), p)
        got = _outcome(getattr(shared, name), p, *args)
        want = _outcome(getattr(build(), name), p, *args)
        assert _same(got, want), (name, i)


def test_rayleigh_entry_is_a_fresh_Qx_and_quotient():
    rng = np.random.default_rng(11)
    build, points, calls = _rayleigh_case(rng)
    calls["residual_norm"] = lambda obj, x: ()  # the eigen drivers' default error
    points.append(points[0].copy())
    shared = build()
    Q = shared.Q
    for name, i in _call_order(rng, calls, points):
        p = points[i]
        _outcome(getattr(shared, name), p, *calls[name](build(), p))
        # the call left the entry at p, whichever method it was
        got = shared._at(p, _unformed)
        want = (Q @ p, float(p @ (Q @ p)))
        for part, fresh in zip(got, want):
            assert np.asarray(part).tobytes() == np.asarray(fresh).tobytes(), (name, i)


def _unformed(Q, p):
    raise AssertionError("no entry at this point")


def test_transport_matches_so_transport():
    rng = np.random.default_rng(5)
    n = 5
    M = SpecialOrthogonal(n)
    V = [rand_skew(rng, n) for _ in range(2)]
    V.append(V[0].copy())
    W = [rand_skew(rng, n) for _ in range(3)]
    for v, t, w in [(V[0], 0.3, W[0]), (V[0], 0.3, W[1]), (V[0], 0.7, W[1]),
                    (V[1], 0.7, W[2]), (V[2], 0.3, W[0]), (V[0], 0.3, W[2])]:
        assert np.array_equal(M.transport(None, v, t, w), so_transport(w, v, t))


def _fig2_start(n, seed, eps=0.1):
    Q, N, T_hat = fig2_matrices(n, seed)
    return Q, N, so_geodesic(T_hat, rand_skew(np.random.default_rng(seed), n), eps)


def _count(monkeypatch, owner, attr, counts, key):
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_steepest_descent_forms_H_once_per_iterate(monkeypatch):
    Q, N, T0 = _fig2_start(6, 1)
    counts = {}
    _count(monkeypatch, rotation, "conjugated_matrix", counts, "H")
    trace = steepest_descent(BrockettObjective(Q, N), T0,
                             SolverConfig(max_iter=40, line_search="estimate"))
    assert trace.iterations == 40
    assert counts["H"] == len(trace)


def test_newton_on_jacobi_forms_H_once_per_iterate(monkeypatch):
    Q, _, T0 = _fig2_start(6, 2, eps=1e-2)
    counts = {}
    _count(monkeypatch, rotation, "conjugated_matrix", counts, "H")
    trace = newton(JacobiObjective(Q), T0)
    assert trace.converged and trace.iterations >= 2
    assert counts["H"] == len(trace)


def test_newton_rayleigh_forms_the_quotient_once_per_iterate(monkeypatch):
    rng = np.random.default_rng(3)
    Q = rand_sym(rng, 40)
    counts = {}
    real = sphere._qx_rho

    def counted(Q, x):  # a dense n^2 pass, or an O(n) one on the tridiagonal T
        key = "dense" if isinstance(Q, np.ndarray) else "T"
        counts[key] = counts.get(key, 0) + 1
        return real(Q, x)

    monkeypatch.setattr(sphere, "_qx_rho", counted)
    res = newton_rayleigh(Q, rand_unit(rng, 40))
    assert res.converged and res.iterations >= 2
    # on T the step, the gradient, the value and the default error share one
    # entry per iterate; mapped back, the last point's dense residual is the one n^2 pass
    assert counts == {"T": len(res.trace), "dense": 1}


@pytest.mark.parametrize("reset_period", [1, 3, None])
def test_cg_calls_expm_twice_per_conjugate_step(monkeypatch, reset_period):
    Q, N, T0 = _fig2_start(6, 4)
    counts = {}
    _count(monkeypatch, rotation, "expm", counts, "expm")
    _count(monkeypatch, SpecialOrthogonal, "transport", counts, "transport")
    objective = BrockettObjective(Q, N)
    trace = conjugate_gradient(objective, T0, SolverConfig(
        max_iter=30, line_search="estimate", reset_period=reset_period))
    period = reset_period or objective.manifold.dim
    # the conjugate directions taken: each step but the last may build one
    conjugate = sum(i % period != period - 1 for i in range(trace.iterations - 1))
    assert counts.get("transport", 0) == 2 * conjugate
    # one expm per geodesic step, one more per pair of transports
    assert counts["expm"] == trace.iterations + conjugate


def _rows(solver, objective, p0, config):
    """The rows of ``solver``'s trace, led by every iterate, which its error
    function records."""
    record, points = recording(objective.error_metric)
    trace = solver(objective, p0, config, record)
    return [np.array(r) for r in (points, trace.points, trace.values, trace.grad_norms,
                                  trace.errors, trace.steps)]


def test_threads_sharing_an_objective_match_serial_runs():
    # more threads than cores, switching as often as the interpreter allows,
    # so that the runs interleave inside the cached methods
    Q, N, _ = fig2_matrices(8, 2)
    starts = [_fig2_start(8, 2, eps)[2] for eps in (0.1, 0.2, 0.3, 0.4)]
    config = SolverConfig(max_iter=60, line_search="estimate")
    serial = [_rows(conjugate_gradient, BrockettObjective(Q, N), T0, config) for T0 in starts]

    shared = BrockettObjective(Q, N)
    results = [[] for _ in starts]
    barrier = threading.Barrier(len(starts))

    def run(k):
        barrier.wait(timeout=60)
        for _ in range(10):
            results[k].append(_rows(conjugate_gradient, shared, starts[k], config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(starts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, runs in enumerate(results):
        assert len(runs) == 10
        for rows in runs:
            for got, want in zip(rows, serial[k]):
                assert np.array_equal(got, want)


def test_threads_sharing_a_rayleigh_objective_match_serial_runs():
    # a fresh objective per round, so that the threads race to build its
    # one reduction and then share it; every run must match a serial one
    rng = np.random.default_rng(11)
    Q = rand_sym(rng, 40)
    starts = [rand_unit(rng, 40) for _ in range(4)]
    config = SolverConfig(max_iter=30)
    serial = [_rows(newton, RayleighObjective(Q), x0, config) for x0 in starts]
    results = [[] for _ in starts]

    def run(k, shared, barrier):
        barrier.wait(timeout=60)
        results[k].append(_rows(newton, shared, starts[k], config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = RayleighObjective(Q)
            barrier = threading.Barrier(len(starts))
            threads = [threading.Thread(target=run, args=(k, shared, barrier))
                       for k in range(len(starts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for k, runs in enumerate(results):
        assert len(runs) == 5
        for rows in runs:
            for got, want in zip(rows, serial[k]):
                assert np.array_equal(got, want)
