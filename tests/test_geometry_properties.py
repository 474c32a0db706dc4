"""Geodesics and parallel transport on S^{n-1} and SO(n) over random sizes
and seeds: ``exp`` stays on the manifold, ``transport`` is an isometry, and
``sphere_log`` inverts ``sphere_exp``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rand_rotation, rand_skew, rand_tangent, rand_unit
from riemopt import Sphere, SpecialOrthogonal, sphere_exp, sphere_log

SIZES = st.integers(2, 30)
SEEDS = st.integers(0, 2**32 - 1)
TIMES = st.floats(-10.0, 10.0)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _draw(manifold, n, rng):
    """Manifold, point and two tangent vectors of random length."""
    if manifold == "sphere":
        p = rand_unit(rng, n)
        return Sphere(n), p, rand_tangent(rng, p, unit=False), rand_tangent(rng, p, unit=False)
    return SpecialOrthogonal(n), rand_rotation(rng, n), rand_skew(rng, n), rand_skew(rng, n)


@PROPERTY
@given(manifold=st.sampled_from(["sphere", "rotation"]), n=SIZES, seed=SEEDS, t=TIMES)
def test_exp_stays_on_the_manifold(manifold, n, seed, t):
    M, p, v, _ = _draw(manifold, n, np.random.default_rng(seed))
    q = M.exp(p, v, t)
    if manifold == "sphere":
        assert abs(q @ q - 1.0) <= 1e-14
    else:
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12
        assert abs(np.linalg.det(q) - 1.0) <= 1e-12


@PROPERTY
@given(manifold=st.sampled_from(["sphere", "rotation"]), n=SIZES, seed=SEEDS, t=TIMES)
def test_transport_is_an_isometry(manifold, n, seed, t):
    rng = np.random.default_rng(seed)
    M, p, v, u = _draw(manifold, n, rng)
    w = rand_tangent(rng, p, unit=False) if manifold == "sphere" else rand_skew(rng, n)
    q = M.exp(p, v, t)
    tu, tw = M.transport(p, v, t, u), M.transport(p, v, t, w)
    scale = M.norm(p, u) * M.norm(p, w)
    assert abs(M.inner(q, tu, tw) - M.inner(p, u, w)) <= 1e-12 * scale
    assert abs(M.norm(q, tu) - M.norm(p, u)) <= 1e-12 * M.norm(p, u)
    if manifold == "sphere":
        assert abs(q @ tu) <= 1e-12 * np.linalg.norm(u)  # tangent at the destination
    else:
        assert np.linalg.norm(tu + tu.T) <= 1e-12 * np.linalg.norm(u)


@PROPERTY
@given(n=SIZES, seed=SEEDS, length=st.floats(1e-8, 3.0))
def test_sphere_log_inverts_sphere_exp(n, seed, length):
    # lengths stay below pi, where the geodesic to the image is unique
    rng = np.random.default_rng(seed)
    x = rand_unit(rng, n)
    h = length * rand_tangent(rng, x)
    v, d = sphere_log(x, sphere_exp(x, h, 1.0))
    assert abs(d - length) <= 1e-12
    assert np.linalg.norm(v - h) <= 1e-12


@PROPERTY
@given(manifold=st.sampled_from(["sphere", "rotation"]), n=SIZES, seed=SEEDS, t=TIMES)
def test_velocity_is_the_translated_velocity_and_the_slope_of_exp(manifold, n, seed, t):
    M, p, v, _ = _draw(manifold, n, np.random.default_rng(seed))
    nv = M.norm(p, v)
    u = M.velocity(p, v, t)
    assert M.norm(p, u - M.transport(p, v, t, v)) <= 1e-12 * nv
    h = 1e-5 / nv  # a central difference of exp(p, v, .) at t, in ambient coordinates
    q, slope = M.exp(p, v, t), (M.exp(p, v, t + h) - M.exp(p, v, t - h)) / (2.0 * h)
    # on SO(n) the velocity is in algebra coordinates: the tangent at q is q u
    assert np.linalg.norm(slope - (u if manifold == "sphere" else q @ u)) <= 1e-7 * nv
