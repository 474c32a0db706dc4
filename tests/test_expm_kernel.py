"""``rotation.expm`` is bit for bit ``scipy.linalg.expm`` on skew input.

``rotation.expm`` calls scipy's private Pade kernels (``pick_pade_structure``
and ``pade_UV_calc`` in ``scipy.linalg._matfuncs_expm``) without the public
function's dispatch.  These tests are the guard against a scipy release that
changes those kernels or the path ``scipy.linalg.expm`` takes for a skew
matrix: every input below must give the same bytes from both.  They ran on
scipy 1.17.1.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg._matfuncs_expm import pick_pade_structure

from riemopt import rotation

#: 1-norm of the skew input -> the (Pade order, squarings > 0) scipy picks
#: for it; the benchmark's SO(n) runs only reach orders 3 to 7, unsquared.
ORDERS = {1e-3: (3, False), 0.1: (5, False), 0.6: (7, False), 1.5: (9, False),
          4.0: (13, False), 8.0: (13, True), 1e4: (13, True)}
SIZES = st.integers(2, 60)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _skew(n, seed, norm):
    """Random skew matrix with 1-norm ``norm``."""
    G = np.random.default_rng(seed).standard_normal((n, n))
    X = G - G.T
    return X * (norm / np.abs(X).sum(axis=0).max())


def _layout(X, layout):
    """The same values as ``X`` in a C, Fortran, transposed or strided array."""
    if layout == "fortran":
        return np.asfortranarray(X)
    if layout == "transposed":
        return np.ascontiguousarray(-X).T  # (-X)^T = X for skew X
    if layout == "strided":
        n = len(X)
        big = np.full((2 * n, 3 * n), 7.0)
        big[::2, ::3] = X
        return big[::2, ::3]
    return X


def _assert_scipy_bits(X):
    E = rotation.expm(X)
    want = scipy.linalg.expm(X)
    assert E.shape == want.shape and E.dtype == want.dtype
    assert E.tobytes() == want.tobytes()
    return E


@pytest.mark.parametrize("norm", sorted(ORDERS))
@pytest.mark.parametrize("n", [2, 3, 10, 30, 60])
def test_scales_reach_every_pade_order_and_the_squaring_branch(norm, n):
    # the property test below draws from these scales, so it covers each branch
    for seed in range(3):
        A = np.empty((5, n, n))
        A[0] = _skew(n, seed, norm)
        m, s = pick_pade_structure(A)
        assert (m, s > 0) == ORDERS[norm]


@PROPERTY
@given(n=SIZES, seed=SEEDS, norm=st.sampled_from(sorted(ORDERS)),
       layout=st.sampled_from(["c", "fortran", "transposed", "strided"]))
def test_matches_scipy_bitwise_in_fresh_memory(n, seed, norm, layout):
    X = _layout(_skew(n, seed, norm), layout)
    before = X.copy()
    E = _assert_scipy_bits(X)
    assert np.array_equal(X, before)
    assert not np.shares_memory(E, X)
    # a second call neither reuses nor overwrites the first result
    E_bits = E.tobytes()
    F = _assert_scipy_bits(_skew(n, seed + 1, norm))
    assert not np.shares_memory(E, F)
    assert E.tobytes() == E_bits


@PROPERTY
@given(n=SIZES, seed=SEEDS, scale=st.floats(-1e4, 1e4, allow_nan=False))
def test_matches_scipy_bitwise_on_any_scale(n, seed, scale):
    G = np.random.default_rng(seed).standard_normal((n, n))
    _assert_scipy_bits(scale * (G - G.T))


@pytest.mark.parametrize("n", [2, 3, 10, 60])
@pytest.mark.parametrize("sign", [0.0, -0.0])
def test_zero_gives_the_identity(n, sign):
    # +0 and -0 entries (a zero step times a skew direction) alike
    Z = sign * _skew(n, 0, 1.0)
    E = _assert_scipy_bits(Z)
    assert E.tobytes() == np.eye(n).tobytes()


@pytest.mark.parametrize("n", [2, 5, 30])
@pytest.mark.parametrize("case", ["nan_pair", "inf_pair", "inf_scale", "nan_scale", "all_nan"])
def test_non_finite_input_matches_scipy(n, case):
    X = _skew(n, n, 1.0)
    if case == "nan_pair":
        X[0, 1], X[1, 0] = np.nan, np.nan
    elif case == "inf_pair":
        X[0, 1], X[1, 0] = np.inf, -np.inf
    elif case == "inf_scale":
        X = np.inf * X  # NaN on the diagonal, +-inf off it
    elif case == "nan_scale":
        X = np.nan * X
    else:
        X = np.full((n, n), np.nan)
    _assert_scipy_bits(X)
