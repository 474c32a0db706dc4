"""Tests of the benchmark's own arithmetic and accuracy checks.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import accuracy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from summary import SolveRecord, ranked_percentile, relative_spread  # noqa: E402


def _records(ok_ms, failed_ms):
    recs = [SolveRecord("ok", t / 1e3, False, "ok", 0.0) for t in ok_ms]
    recs += [SolveRecord("bad", t / 1e3, True, "inaccurate", 1.0) for t in failed_ms]
    return recs


def test_failed_solves_rank_above_every_success():
    # the failures are the fastest solves, yet they rank last
    recs = _records(ok_ms=range(1, 10), failed_ms=[0.5])
    assert ranked_percentile(recs, 0.5) == pytest.approx(5e-3)
    assert ranked_percentile(recs, 0.9) == pytest.approx(9e-3)
    recs = _records(ok_ms=range(1, 9), failed_ms=[0.5, 0.6])
    assert ranked_percentile(recs, 0.9) == math.inf
    assert ranked_percentile(recs, 0.5) == pytest.approx(5e-3)


def test_relative_spread_matches_statistics_quartiles():
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_self_times_subtract_direct_children_only():
    # root [0, 10] has children A [1, 4] and B [5, 9]; B has child C [6, 8]
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 2.0])
    own = tracing.self_times(parent, duration)
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]
    assert own.sum() == pytest.approx(duration[0])


def test_traced_calls_account_for_the_solve_time():
    tracer = tracing.Tracer()

    def leaf(x):
        return np.linalg.norm(np.ones(50) * x)

    traced_leaf = tracer.wrap("sphere.value", leaf)
    traced_mid = tracer.wrap("sphere.exp", lambda: sum(traced_leaf(i) for i in range(5)))
    for sid in range(3):
        tracer.run_solve(sid, lambda: [traced_mid() for _ in range(4)])
    leaf(1.0)  # outside a solve: not recorded

    m, checks = tracing.layer_metrics(tracer, range(3))
    assert m["sphere.exp.calls"] == 12
    assert m["sphere.value.calls"] == 60
    assert checks["spans"] == 3 + 12 + 60
    assert checks["nesting_faults"] == 0
    assert checks["self_sum_s"] == pytest.approx(m["trace.solve_s"])


def test_nesting_faults_flags_spans_that_do_not_nest():
    # root 0 [0, 10] of solve 0 with children 1 [1, 4] and 2 [5, 9]; root 3 [11, 12]
    parent = [-1, 0, 0, -1]
    solve = [0, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 11.0]
    end = [10.0, 4.0, 9.0, 12.0]
    assert tracing.nesting_faults(parent, solve, start, end) == 0
    assert tracing.nesting_faults(parent, solve, start, [10.0, 4.0, 11.0, 12.0]) == 1  # escapes
    assert tracing.nesting_faults(parent, solve, [0.0, 1.0, 3.0, 11.0], end) == 1  # overlap
    assert tracing.nesting_faults(parent, [0, 0, 1, 1], start, end) == 1  # other solve
    assert tracing.nesting_faults(parent, solve, start, [10.0, 0.0, 9.0, 12.0]) == 1  # unclosed


def test_count_mismatches_names_only_differing_counts():
    first = {"linalg.svd.calls": 4, "linalg.svd.s": 0.1, "solvers.iterations": 7}
    second = {"linalg.svd.calls": 4, "linalg.svd.s": 0.2, "solvers.iterations": 8}
    assert tracing.count_mismatches(first, second) == ["solvers.iterations"]


def _symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def test_eigenpair_check_rejects_a_perturbed_pair():
    Q = _symmetric(8, 0)
    w, V = np.linalg.eigh(Q)
    ok, err = accuracy.check_eigenpair(Q, w, w[-1], V[:, -1])
    assert ok and err < 1e-13
    x = V[:, -1] + 1e-6 * V[:, 0]
    x /= np.linalg.norm(x)
    ok, err = accuracy.check_eigenpair(Q, w, float(x @ Q @ x), x)
    assert not ok and err > 1e-8
    assert accuracy.check_eigenpair(Q, w, w[-1] + 1e-6, V[:, -1])[0] is False
    assert accuracy.check_eigenpair(Q, w, np.nan, V[:, -1]) == (False, math.inf)


def _givens(n, i, j, angle):
    G = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    G[i, i] = G[j, j] = c
    G[i, j], G[j, i] = -s, s
    return G


def test_rotation_checks_reject_a_perturbed_rotation():
    n = 6
    V = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
    if np.linalg.det(V) < 0:
        V[:, 0] = -V[:, 0]
    Q = V @ np.diag(np.arange(n, 0, -1.0)) @ V.T
    Q = 0.5 * (Q + Q.T)
    assert accuracy.check_sorted_diagonal(Q, V)[0]
    assert accuracy.check_diagonalizer(Q, V)[0]
    T = V @ _givens(n, 1, 4, 1e-6)
    assert not accuracy.check_sorted_diagonal(Q, T)[0]
    assert not accuracy.check_diagonalizer(Q, T)[0]
    # a reflection diagonalizes Q too, but is not a rotation
    assert not accuracy.check_diagonalizer(Q, V @ np.diag([-1.0] + [1.0] * (n - 1)))[0]


def test_top_axis_check():
    x = np.zeros(21)
    x[0] = -1.0
    assert accuracy.check_top_axis(x)[0]
    x[3] = 1e-6
    assert not accuracy.check_top_axis(x / np.linalg.norm(x))[0]


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    m, _ = tracing.layer_metrics(tracing.Tracer(), [])
    assert set(m) <= listed


def test_run_length_is_whole_rounds_set_by_seconds_alone():
    w = workloads.Workload(cycle=None, trace_cycles=1, round_s=2.0, round=3)
    assert w.cycles_for(30, 50, 100) == 15 * 3
    assert w.cycles_for(1, 50, 100) == 3        # at least one round
    assert w.cycles_for(1, 10, 100) == 4 * 3    # and at least min_solves solves
