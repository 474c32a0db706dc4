"""Seeded random instances for experiments and verification sweeps.

All sampling goes through numpy's default generator (PCG64), so a run is
reproducible bit-for-bit from its integer seed.
"""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed):
    return np.random.default_rng(seed)


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def random_unit_vector(rng, n):
    """Uniform point on the sphere: normalized standard normals."""
    while True:
        x = rng.normal(size=n)
        nx = np.linalg.norm(x)
        if nx > 0.0:
            return x / nx


def random_unit_tangent(rng, x):
    """Uniform unit tangent direction at a sphere point ``x``."""
    while True:
        u = rng.normal(size=len(x))
        u = u - (x @ u) * x
        nu = np.linalg.norm(u)
        if nu > 1e-12:
            return u / nu


def random_rotation(rng, n):
    """Haar-ish rotation via QR of a Gaussian matrix, determinant fixed to +1."""
    A = rng.normal(size=(n, n))
    V, R = np.linalg.qr(A)
    V = V * np.sign(np.diag(R))
    if np.linalg.det(V) < 0.0:
        V[:, -1] = -V[:, -1]
    return V


def random_unit_skew(rng, n):
    A = rng.normal(size=(n, n))
    X = 0.5 * (A - A.T)
    return X / np.linalg.norm(X)
