import pytest

from riemopt import STAGNATION_FLOOR, estimate_order, longest_decreasing_run
from riemopt.errors import OrderFitError


def synthetic(p, theta, e0=1e-1, count=6):
    errs = [e0]
    for _ in range(count - 1):
        nxt = theta * errs[-1] ** p
        if nxt <= 0 or nxt <= STAGNATION_FLOOR:
            break
        errs.append(nxt)
    return errs


def test_exact_geometric_sequence():
    rep = estimate_order([1e-1, 1e-2, 1e-3, 1e-4])
    assert rep.order == pytest.approx(1.0, abs=1e-9)
    assert rep.rate == pytest.approx(0.1, rel=1e-9)
    assert rep.residual < 1e-12


def test_exact_quadratic_sequence():
    rep = estimate_order([1e-1, 1e-2, 1e-4, 1e-8])
    assert rep.order == pytest.approx(2.0, abs=1e-9)
    assert rep.rate == pytest.approx(1.0, rel=1e-9)


def test_exact_cubic_sequence():
    rep = estimate_order([1e-1, 1e-3, 1e-9])
    assert rep.order == pytest.approx(3.0, abs=1e-9)
    assert rep.rate == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_synthetic_sweep(p, theta):
    if p == 1 and theta == 1.0:
        pytest.skip("constant sequence is not decreasing")
    errs = synthetic(p, theta)
    if len(errs) < 3:
        errs = synthetic(p, theta, e0=0.3)
    rep = estimate_order(errs)
    assert abs(rep.order - p) <= 0.05
    assert abs(rep.rate - theta) <= 0.1 * theta


def test_window_start_invariance():
    errs = [2.0, 1.5] + synthetic(2, 0.9, e0=1e-1, count=5)
    full = estimate_order(errs, window=(2, len(errs)))
    shifted = estimate_order(errs[1:], window=(1, len(errs) - 1))
    assert full.order == pytest.approx(shifted.order, rel=1e-12)
    assert full.rate == pytest.approx(shifted.rate, rel=1e-12)


def test_too_few_points():
    with pytest.raises(OrderFitError, match="need at least 3 entries, got 2"):
        estimate_order([1e-1, 1e-2])


@pytest.mark.parametrize("window, lag, match", [
    ((0, 10), 1, r"window \(0, 10\) out of range"), ((-1, 3), 1, r"window \(-1, 3\) out"),
    ((2, 2), 1, r"window \(2, 2\) out"), ((3, 1), 1, r"window \(3, 1\) out"),
    (None, 0, "lag 0 or window"), ((0, 4), -1, "lag -1 or window"),
], ids=["past-the-end", "negative-start", "empty", "reversed", "lag-0", "lag-negative"])
def test_window_and_lag_are_checked(window, lag, match):
    # a window past the end used to fit silently, and lag 0 raised numpy's
    # broadcast error
    with pytest.raises(OrderFitError, match=match):
        estimate_order([1.0, 0.1, 0.01, 0.001], window=window, lag=lag)


def test_non_decreasing_rejected():
    with pytest.raises(OrderFitError, match="positive and strictly decreasing"):
        estimate_order([1e-1, 1e-2, 1e-2, 1e-3])
    with pytest.raises(OrderFitError, match="positive and strictly decreasing"):
        estimate_order([1e-1, -1e-2, 1e-3, 1e-4])


@pytest.mark.parametrize("errs", [[1.0, float("nan"), 1e-3, 1e-6, 1e-9],
                                  [float("inf"), 1e-1, 1e-3, 1e-6],
                                  [1.0, 1e-2, 1e-4, float("nan")]])
def test_non_finite_rejected(errs):
    with pytest.raises(OrderFitError, match="entries must be finite"):
        estimate_order(errs)


def test_all_below_floor_rejected():
    tiny = STAGNATION_FLOOR
    with pytest.raises(OrderFitError, match="all entries at or below the stagnation floor"):
        estimate_order([tiny * 0.9, tiny * 0.5, tiny * 0.1])


def test_a_window_into_the_floor_is_rejected():
    # the whole sequence trims its tail; a window given by hand is not trimmed
    errs = [1e-1, 1e-3, 1e-6, 1e-12, 0.5 * STAGNATION_FLOOR]
    assert estimate_order(errs).window == (0, 4)
    with pytest.raises(OrderFitError, match="window reaches into the stagnation floor"):
        estimate_order(errs, window=(0, 5))


def test_stagnated_tail_autotrimmed():
    errs = [1e-1, 1e-2, 1e-3, 1e-4, 1e-16, 9e-17]
    rep = estimate_order(errs)
    assert rep.window == (0, 4)
    assert rep.order == pytest.approx(1.0, abs=1e-9)


def test_lagged_fit():
    # e_{i+2} = 0.1 e_i exactly on a geometric sequence
    errs = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3]
    rep = estimate_order(errs, lag=2)
    assert rep.order == pytest.approx(1.0, abs=1e-9)
    assert rep.rate == pytest.approx(0.1, rel=1e-9)


def test_longest_decreasing_run():
    errs = [5.0, 4.0, 6.0, 3.0, 2.0, 1.0]
    assert longest_decreasing_run(errs) == (2, 6)
    errs = [3.0, 2.0, 1.0, 1e-16, 5e-17]
    assert longest_decreasing_run(errs) == (0, 3)


def test_entries_between_100_and_1000_eps_are_above_the_floor():
    # the floor is 100 eps, about 2.2e-14: an error of 1e-13 is still a
    # converging entry, neither trimmed nor cut from the run
    errs = [1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13]
    assert longest_decreasing_run(errs) == (0, 7)
    rep = estimate_order(errs)
    assert rep.window == (0, 7)
    assert rep.order == pytest.approx(1.0, abs=1e-9)
