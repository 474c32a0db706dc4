import numpy as np
import pytest

from _oracles import rand_tangent, rand_unit, transport_ode_sphere
from riemopt import Sphere, sphere_distance, sphere_exp, sphere_log, sphere_transport
from riemopt.errors import AntipodalPoints, NotTangent, NotUnitDirection, ZeroTangent
from riemopt.sphere import check_tangent, check_unit


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_exp_quarter_circle():
    n = 4
    y = sphere_exp(e(n, 0), e(n, 1), np.pi / 2)
    np.testing.assert_allclose(y, e(n, 1), atol=1e-15)


def test_exp_at_zero_time():
    n = 4
    np.testing.assert_allclose(sphere_exp(e(n, 0), e(n, 1), 0.0), e(n, 0))


def test_exp_eighth_circle():
    n = 4
    y = sphere_exp(e(n, 0), e(n, 1), np.pi / 4)
    expect = np.zeros(n)
    expect[0] = expect[1] = np.sqrt(2) / 2
    np.testing.assert_allclose(y, expect, atol=1e-15)


def test_exp_zero_tangent():
    n = 3
    np.testing.assert_allclose(sphere_exp(e(n, 0), np.zeros(n), 0.0), e(n, 0))
    with pytest.raises(ZeroTangent):
        sphere_exp(e(n, 0), np.zeros(n), 1.0)


def test_exp_scales_by_norm():
    rng = np.random.default_rng(0)
    x = rand_unit(rng, 5)
    u = rand_tangent(rng, x)
    np.testing.assert_allclose(sphere_exp(x, 0.3 * u, 1.0), sphere_exp(x, u, 0.3), atol=1e-15)


def test_exp_stays_unit_along_circle():
    rng = np.random.default_rng(1)
    x = rand_unit(rng, 6)
    h = rand_tangent(rng, x)
    for t in np.linspace(0.0, 2 * np.pi, 40):
        y = sphere_exp(x, h, t)
        assert abs(y @ y - 1.0) <= 1e-12


def test_transport_orthogonal_component_unchanged():
    rng = np.random.default_rng(2)
    x = rand_unit(rng, 5)
    h = rand_tangent(rng, x)
    v = rand_tangent(rng, x, unit=False)
    v -= (h @ v) * h  # orthogonal to the motion
    out = sphere_transport(x, h, 0.9, v)
    np.testing.assert_allclose(out, v, atol=1e-14)


def test_transport_of_direction_reaches_minus_base():
    n = 4
    out = sphere_transport(e(n, 0), e(n, 1), np.pi / 2, e(n, 1))
    np.testing.assert_allclose(out, -e(n, 0), atol=1e-15)


def test_transport_matches_ode_integration():
    rng = np.random.default_rng(3)
    x = rand_unit(rng, 5)
    h = rand_tangent(rng, x)
    v = rand_tangent(rng, x, unit=False) * 2.3
    t = 0.7
    got = sphere_transport(x, h, t, v)
    want = transport_ode_sphere(x, h, t, v)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_transport_isometry():
    rng = np.random.default_rng(4)
    x = rand_unit(rng, 7)
    h = rand_tangent(rng, x)
    for _ in range(20):
        v = rand_tangent(rng, x, unit=False)
        w = rand_tangent(rng, x, unit=False)
        t = rng.uniform(0, 2 * np.pi)
        tv = sphere_transport(x, h, t, v)
        tw = sphere_transport(x, h, t, w)
        assert abs(tv @ tw - v @ w) <= 1e-12 * max(1.0, abs(v @ w))
        assert abs(np.linalg.norm(tv) - np.linalg.norm(v)) <= 1e-12


def test_transport_result_is_tangent_at_destination():
    rng = np.random.default_rng(5)
    x = rand_unit(rng, 5)
    h = rand_tangent(rng, x)
    v = rand_tangent(rng, x, unit=False)
    t = 1.3
    y = sphere_exp(x, h, t)
    out = sphere_transport(x, h, t, v)
    assert abs(y @ out) <= 1e-12 * np.linalg.norm(out)


def test_transport_validates_inputs():
    n = 4
    with pytest.raises(NotUnitDirection):
        sphere_transport(e(n, 0), 2.0 * e(n, 1), 0.5, e(n, 2))
    with pytest.raises(NotTangent):
        sphere_transport(e(n, 0), e(n, 1), 0.5, e(n, 0) + e(n, 2))


def test_log_of_same_point():
    x = rand_unit(np.random.default_rng(6), 4)
    v, d = sphere_log(x, x)
    assert d == 0.0
    np.testing.assert_allclose(v, np.zeros(4))


def test_log_quarter_circle():
    n = 4
    v, d = sphere_log(e(n, 0), e(n, 1))
    assert d == pytest.approx(np.pi / 2)
    np.testing.assert_allclose(v, e(n, 1) * np.pi / 2, atol=1e-15)


def test_log_exp_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rand_unit(rng, 4)
        y = rand_unit(rng, 4)
        if x @ y < -0.99:
            continue
        v, d = sphere_log(x, y)
        assert d == pytest.approx(sphere_distance(x, y))
        back = sphere_exp(x, v, 1.0)
        np.testing.assert_allclose(back, y, atol=1e-10)


@pytest.mark.parametrize("angle", [1e-6, 1e-8, 1e-9, 1e-12, 0.5, 3.0])
def test_distance_is_exact_for_small_angles(angle):
    # arccos(x.y) reads 1e-8 and 1e-9 as 0.0, and 1e-6 as 1.00004e-6
    rng = np.random.default_rng(3)
    x = rand_unit(rng, 5)
    y = sphere_exp(x, rand_tangent(rng, x), angle)
    assert sphere_distance(x, y) == pytest.approx(angle, rel=1e-12)
    assert sphere_distance(x, y) == sphere_log(x, y)[1]


def test_distance_of_equal_and_antipodal_points():
    x = rand_unit(np.random.default_rng(4), 5)
    assert sphere_distance(e(5, 2), e(5, 2)) == 0.0
    assert sphere_distance(x, x) <= 1e-15  # |x| is 1 to round-off
    assert sphere_distance(x, -x) == np.pi


def test_log_antipodal_rejected():
    x = rand_unit(np.random.default_rng(8), 5)
    with pytest.raises(AntipodalPoints):
        sphere_log(x, -x)


def test_log_of_points_one_rounding_apart():
    # y differs from x in its last bit: the perpendicular part is exactly 0,
    # so y is x itself to the log, and -y is antipodal before its cosine is
    # read (the existing antipodal test reaches only the cosine's check)
    x = np.array([0.6, 0.8, 0.0])
    y = x * (1.0 - 2.0**-53)
    assert not np.array_equal(x, y)
    v, d = sphere_log(x, y)
    assert d == 0.0 and v.tobytes() == np.zeros(3).tobytes()
    with pytest.raises(AntipodalPoints):
        sphere_log(x, -y)


def test_transport_along_a_zero_direction_is_a_copy():
    x = rand_unit(np.random.default_rng(10), 6)
    w = rand_tangent(np.random.default_rng(11), x)
    got = Sphere(6).transport(x, np.zeros(6), 0.7, w)
    assert got is not w
    assert got.tobytes() == w.tobytes()


def test_manifold_contract():
    rng = np.random.default_rng(9)
    M = Sphere(6)
    assert M.dim == 5
    x = rand_unit(rng, 6)
    u = rand_tangent(rng, x, unit=False)
    v = rand_tangent(rng, x, unit=False)
    # inner: symmetric, positive definite
    assert M.inner(x, u, v) == pytest.approx(M.inner(x, v, u))
    assert M.inner(x, u, u) > 0
    # exp at t=0
    np.testing.assert_allclose(M.exp(x, u, 0.0), x)
    # transport through the manifold interface handles non-unit directions
    t = 0.8
    got = M.transport(x, u, t, v)
    want = transport_ode_sphere(x, u / np.linalg.norm(u), t * np.linalg.norm(u), v)
    np.testing.assert_allclose(got, want, atol=1e-10)


def _spoiled(x, bad):
    x = x.copy()
    x[1] = bad
    return x


# a NaN error compares false against its tolerance, so none of these checks
# may be written as "error > tol"
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_check_rejects_non_finite_points(bad):
    x = _spoiled(rand_unit(np.random.default_rng(13), 5), bad)
    with pytest.raises(NotUnitDirection):
        check_unit(x)
    with pytest.raises(NotUnitDirection):
        Sphere(5).check_point(x)
    with pytest.raises(NotUnitDirection):
        Sphere(5).check_point(np.full(5, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tangent_check_rejects_non_finite_points(bad):
    rng = np.random.default_rng(14)
    x = rand_unit(rng, 5)
    v = rand_tangent(rng, x, unit=False)
    with pytest.raises(NotTangent):
        check_tangent(_spoiled(x, bad), v)
    with pytest.raises(NotTangent):
        check_tangent(np.full(5, bad), v)
    with pytest.raises(NotTangent):
        check_tangent(x, _spoiled(v, bad))
    with pytest.raises(NotTangent):
        sphere_transport(_spoiled(x, bad), e(5, 1), 0.5, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transport_rejects_a_non_finite_direction(bad):
    rng = np.random.default_rng(15)
    x = rand_unit(rng, 5)
    h = rand_tangent(rng, x, unit=True)
    v = rand_tangent(rng, x, unit=False)
    with pytest.raises(NotUnitDirection):
        sphere_transport(x, _spoiled(h, bad), 0.5, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exp_rejects_a_non_finite_tangent(bad):
    rng = np.random.default_rng(16)
    x = rand_unit(rng, 5)
    h = rand_tangent(rng, x, unit=False)
    with pytest.raises(NotTangent):
        sphere_exp(x, _spoiled(h, bad), 0.5)
    with pytest.raises(NotTangent):
        Sphere(5).exp(x, np.full(5, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_rejects_a_non_finite_point(bad):
    rng = np.random.default_rng(17)
    x, y = rand_unit(rng, 5), rand_unit(rng, 5)
    for p, q in ((_spoiled(x, bad), y), (x, _spoiled(y, bad)),
                 (_spoiled(x, bad), _spoiled(x, bad)), (np.full(5, bad), e(5, 1))):
        with pytest.raises(NotUnitDirection):
            sphere_log(p, q)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distance_rejects_a_non_finite_point(bad):
    # the same check as sphere_log's; the angle used to come back as NaN,
    # with a warning from the tangent projection for an inf point
    rng = np.random.default_rng(18)
    x, y = rand_unit(rng, 5), rand_unit(rng, 5)
    for p, q in ((_spoiled(x, bad), y), (x, _spoiled(y, bad)),
                 (_spoiled(x, bad), _spoiled(x, bad)), (e(5, 0), np.array([bad, 0, 0, 0, 0]))):
        with pytest.raises(NotUnitDirection):
            sphere_distance(p, q)
