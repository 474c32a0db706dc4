"""Finite-difference verification of analytic gradients and Hessian forms.

Derivatives are taken along geodesics: the slope of ``t -> f(exp_p(t u))``
at 0 must equal ``<grad f, u>`` and its curvature must equal the second
covariant differential applied to ``(u, u)``.  Central differences, so the
truncation error is quadratic in the step.
"""

from __future__ import annotations

import numpy as np

from .rotation import BrockettObjective, JacobiObjective
from .sampling import (
    random_rotation,
    random_symmetric,
    random_unit_skew,
    random_unit_tangent,
    random_unit_vector,
    rng_from_seed,
)
from .sphere import RayleighObjective

GRAD_STEP = 1e-5
HESS_STEP = 1e-4
DIRECTIONS = 8  # tangents per instance of a family check


def geodesic_slope(value_fn, manifold, p, u):
    """Central-difference derivative of ``value_fn`` along ``exp_p(t u)``."""
    h = GRAD_STEP
    return (value_fn(manifold.exp(p, u, h)) - value_fn(manifold.exp(p, u, -h))) / (2.0 * h)


def geodesic_curvature(value_fn, manifold, p, u):
    """Central-difference second derivative along ``exp_p(t u)``."""
    h = HESS_STEP
    plus = value_fn(manifold.exp(p, u, h))
    minus = value_fn(manifold.exp(p, u, -h))
    return (plus - 2.0 * value_fn(p) + minus) / (h * h)


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _family_check(seed, instances, draw_objective, draw_point, draw_direction):
    """Max relative gradient/Hessian-form errors over seeded instances.

    Each instance draws, in this order, an objective from
    ``draw_objective(rng)``, a point from ``draw_point(rng)`` and
    ``DIRECTIONS`` tangents from ``draw_direction(rng, p)``, and checks
    its ``value`` against its ``gradient`` and against the second
    covariant differential ``<hessian_apply(p, u), u>``.
    """
    rng = rng_from_seed(seed)
    grad_err, hess_err = 0.0, 0.0
    for _ in range(instances):
        objective = draw_objective(rng)
        manifold = objective.manifold
        p = draw_point(rng)
        dirs = [draw_direction(rng, p) for _ in range(DIRECTIONS)]
        g = objective.gradient(p)
        for u in dirs:
            slope = geodesic_slope(objective.value, manifold, p, u)
            grad_err = max(grad_err, relative_error(manifold.inner(p, g, u), slope))
            curv = geodesic_curvature(objective.value, manifold, p, u)
            form = manifold.inner(p, objective.hessian_apply(p, u), u)
            hess_err = max(hess_err, relative_error(form, curv))
    return grad_err, hess_err


def rayleigh_family_check(n, seed, instances=20):
    """Max relative gradient/Hessian-form errors over seeded quotient instances."""
    return _family_check(seed, instances,
                         lambda rng: RayleighObjective(random_symmetric(rng, n), "min"),
                         lambda rng: random_unit_vector(rng, n), random_unit_tangent)


def brockett_family_check(n, seed, instances=20):
    N = np.diag(np.arange(n, 0, -1.0))
    return _family_check(seed, instances,
                         lambda rng: BrockettObjective(random_symmetric(rng, n), N),
                         lambda rng: random_rotation(rng, n), lambda rng, T: random_unit_skew(rng, n))


def jacobi_family_check(n, seed, instances=20):
    return _family_check(seed, instances,
                         lambda rng: JacobiObjective(random_symmetric(rng, n)),
                         lambda rng: random_rotation(rng, n), lambda rng, T: random_unit_skew(rng, n))
