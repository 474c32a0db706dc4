import numpy as np
import pytest

from _oracles import expm_series, rand_rotation, rand_skew, skew_exp, transport_ode_rotation
from riemopt import SpecialOrthogonal, rotation, so_geodesic, so_transport
from riemopt.errors import NotRotation
from riemopt.experiments import ExperimentSpec, run_experiment


def test_exp_of_zero_is_identity():
    np.testing.assert_allclose(skew_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_planar_rotation():
    X = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = skew_exp(X, np.pi / 2)
    np.testing.assert_allclose(R, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)


def test_exp_matches_truncated_series():
    rng = np.random.default_rng(0)
    X = rand_skew(rng, 6)
    got = skew_exp(X, 0.3)
    want = expm_series(0.3 * X, terms=30)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_exp_group_property():
    rng = np.random.default_rng(1)
    X = rand_skew(rng, 5)
    left = skew_exp(X, 0.4) @ skew_exp(X, 0.9)
    right = skew_exp(X, 1.3)
    assert np.linalg.norm(left - right) <= 1e-10


def test_exp_is_special_orthogonal():
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = rand_skew(rng, 7)
        R = skew_exp(X, rng.uniform(-2, 2))
        assert np.linalg.norm(R.T @ R - np.eye(7)) <= 1e-10
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-8)


def test_exp_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_exp(np.eye(3))


def test_geodesic_at_zero():
    rng = np.random.default_rng(3)
    T = rand_rotation(rng, 5)
    X = rand_skew(rng, 5)
    np.testing.assert_allclose(so_geodesic(T, X, 0.0), T)


def test_geodesic_from_identity():
    rng = np.random.default_rng(4)
    X = rand_skew(rng, 4)
    np.testing.assert_allclose(so_geodesic(np.eye(4), X, 0.7), skew_exp(X, 0.7))


def test_geodesic_stays_orthogonal():
    rng = np.random.default_rng(5)
    T = rand_rotation(rng, 5)
    X = rand_skew(rng, 5)
    for t in np.linspace(-2.0, 2.0, 9):
        R = so_geodesic(T, X, t)
        assert np.linalg.norm(R.T @ R - np.eye(5)) <= 1e-10


def _counted_repair(monkeypatch):
    """A list that gains an entry each time a drift check finds a point off
    the group, which in ``so_geodesic`` is each Newton-Schulz repair."""
    calls = []
    drift = rotation._drift

    def counted(R):
        E, d = drift(R)
        if not d <= rotation.DRIFT_TOL:
            calls.append(1)
        return E, d

    monkeypatch.setattr(rotation, "_drift", counted)
    return calls


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_geodesic_pulls_a_drifted_point_back_onto_the_group(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 6
    T = rand_rotation(rng, n)
    T_off = T + 1e-9 * rng.normal(size=(n, n))  # |T'T - I|_F far above DRIFT_TOL
    X = rand_skew(rng, n)
    calls = _counted_repair(monkeypatch)
    R = so_geodesic(T_off, X, 0.3)
    assert calls == [1]
    assert np.linalg.norm(R.T @ R - np.eye(n)) <= 1e-14
    assert np.linalg.norm(R - T @ skew_exp(X, 0.3)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geodesic_repairs_a_drift_of_a_few_e_minus_11(seed):
    # T = V (I + 2e-12 S) is off the group by 2.5e-11..3.6e-11, well above
    # round-off: the drift control must pull the step back to round-off
    rng = np.random.default_rng(seed)
    n = 5
    V = rand_rotation(rng, n)
    A = rng.standard_normal((n, n))
    T = V @ (np.eye(n) + 2e-12 * (A + A.T))
    assert np.linalg.norm(T.T @ T - np.eye(n)) >= 2e-11
    R = so_geodesic(T, rand_skew(rng, n), 0.3)
    assert np.linalg.norm(R.T @ R - np.eye(n)) < 1e-13


def test_geodesic_on_the_group_is_the_plain_product(monkeypatch):
    rng = np.random.default_rng(9)
    T = rand_rotation(rng, 6)
    X = rand_skew(rng, 6)
    calls = _counted_repair(monkeypatch)
    assert np.array_equal(so_geodesic(T, X, 0.3), T @ skew_exp(X, 0.3))
    assert calls == []


def test_geodesic_rejects_a_non_skew_direction():
    # e^{ones(3)} is far from orthogonal; one Newton-Schulz step cannot
    # repair it, where a polar factor would have returned the identity
    with pytest.raises(NotRotation, match="skew"):
        so_geodesic(np.eye(3), np.ones((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_geodesic_rejects_a_non_finite_direction(bad):
    X = rand_skew(np.random.default_rng(10), 4)
    X[0, 1], X[1, 0] = bad, -bad
    with pytest.raises(NotRotation):
        so_geodesic(rand_rotation(np.random.default_rng(11), 4), X, 0.3)


@pytest.mark.parametrize("drift", [1e-11, 1e-9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geodesic_repairs_a_drift_in_one_newton_schulz_step(drift, seed, monkeypatch):
    # T = V (I + S), S symmetric with |S|_F = drift / 2, is off the group by
    # about drift; one step squares that to far below round-off
    rng = np.random.default_rng(seed)
    n = 6
    V = rand_rotation(rng, n)
    A = rng.standard_normal((n, n))
    S = (A + A.T) * (drift / (2.0 * np.linalg.norm(A + A.T)))
    T = V @ (np.eye(n) + S)
    assert np.linalg.norm(T.T @ T - np.eye(n)) == pytest.approx(drift, rel=0.01)
    X = rand_skew(rng, n)
    calls = _counted_repair(monkeypatch)
    R = so_geodesic(T, X, 0.3)
    assert calls == [1]
    assert np.linalg.norm(R.T @ R - np.eye(n)) < 1e-14
    assert np.linalg.norm(R - V @ skew_exp(X, 0.3)) < 1e-14


@pytest.mark.parametrize("n", [5, 10, 30])
@pytest.mark.parametrize("experiment, method",
                         [("fig2", "sd"), ("fig2", "cg"), ("fig2", "newton"), ("jacobi", "newton")])
def test_runs_from_near_starts_never_repair(experiment, method, n, monkeypatch):
    # valid steps stay on the group to round-off, so the repair never
    # fires and every run keeps the bits of the plain product T e^{tX}
    calls = _counted_repair(monkeypatch)
    report, trace = run_experiment(ExperimentSpec(experiment, n=n, method=method, init="near"))
    assert report.error_message is None and trace.iterations > 0
    assert calls == []


def test_transport_at_zero():
    rng = np.random.default_rng(6)
    X = rand_skew(rng, 5)
    Y = rand_skew(rng, 5)
    np.testing.assert_allclose(so_transport(Y, X, 0.0), Y, atol=1e-15)


def test_transport_commuting_unchanged():
    rng = np.random.default_rng(7)
    X = rand_skew(rng, 4)
    Y = 2.5 * X  # commutes with X
    np.testing.assert_allclose(so_transport(Y, X, 1.3), Y, atol=1e-13)


def test_transport_matches_ode_integration():
    rng = np.random.default_rng(8)
    X = rand_skew(rng, 5)
    Y = rand_skew(rng, 5)
    got = so_transport(Y, X, 0.8)
    want = transport_ode_rotation(X, Y, 0.8)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_transport_isometry_and_linearity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        X = rand_skew(rng, 5)
        Y1 = rand_skew(rng, 5)
        Y2 = rand_skew(rng, 5)
        t = rng.uniform(-2, 2)
        tY1 = so_transport(Y1, X, t)
        tY2 = so_transport(Y2, X, t)
        assert abs(np.linalg.norm(tY1) - np.linalg.norm(Y1)) <= 1e-12 * max(1, np.linalg.norm(Y1))
        ip_before = np.sum(Y1 * Y2)
        ip_after = np.sum(tY1 * tY2)
        assert abs(ip_after - ip_before) <= 1e-12 * max(1.0, abs(ip_before))
        a, b = rng.normal(size=2)
        combined = so_transport(a * Y1 + b * Y2, X, t)
        np.testing.assert_allclose(combined, a * tY1 + b * tY2, atol=1e-12)


def test_transport_output_is_skew():
    rng = np.random.default_rng(10)
    X = rand_skew(rng, 6)
    Y = rand_skew(rng, 6)
    out = so_transport(Y, X, 1.7)
    assert np.linalg.norm(out + out.T) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_manifold_contract():
    rng = np.random.default_rng(11)
    M = SpecialOrthogonal(5)
    assert M.dim == 10
    T = rand_rotation(rng, 5)
    X = rand_skew(rng, 5)
    Y = rand_skew(rng, 5)
    # inner product is the negative trace form
    assert M.inner(T, X, Y) == pytest.approx(-np.trace(X @ Y), rel=1e-12)
    assert M.inner(T, X, X) > 0
    np.testing.assert_allclose(M.exp(T, X, 0.0), T)
    got = M.transport(T, X, 0.6, Y)
    np.testing.assert_allclose(got, transport_ode_rotation(X, Y, 0.6), atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["one", "all"])
def test_check_point_rejects_non_finite_points(bad, where):
    # a NaN drift compares false against the tolerance, so the check must not
    # be written as "drift > tol"
    T = rand_rotation(np.random.default_rng(12), 4)
    if where == "one":
        T[1, 2] = bad
    else:
        T[:] = bad
    with pytest.raises(NotRotation):
        SpecialOrthogonal(4).check_point(T)
