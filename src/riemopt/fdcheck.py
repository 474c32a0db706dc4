"""Finite-difference verification of analytic gradients and Hessian forms.

Derivatives are taken along geodesics: the slope of ``t -> f(exp_p(t u))``
at 0 must equal ``<grad f, u>`` and its curvature must equal the second
covariant differential applied to ``(u, u)``.  Central differences, so the
truncation error is quadratic in the step.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .rotation import (
    BrockettProblem,
    JacobiProblem,
    SpecialOrthogonal,
    brockett_gradient,
    brockett_hessian_operator,
    brockett_value,
    jacobi_gradient,
    jacobi_hessian_operator,
    jacobi_value,
)
from .sampling import (
    random_rotation,
    random_symmetric,
    random_unit_skew,
    random_unit_tangent,
    random_unit_vector,
    rng_from_seed,
)
from .sphere import RayleighProblem, Sphere, rayleigh_gradient, rayleigh_hessian_apply, rayleigh_value

GRAD_STEP = 1e-5
HESS_STEP = 1e-4


def geodesic_slope(value_fn, manifold, p, u, step=GRAD_STEP):
    """Central-difference derivative of ``value_fn`` along ``exp_p(t u)``."""
    return (value_fn(manifold.exp(p, u, step)) - value_fn(manifold.exp(p, u, -step))) / (2.0 * step)


def geodesic_curvature(value_fn, manifold, p, u, step=HESS_STEP):
    """Central-difference second derivative along ``exp_p(t u)``."""
    plus = value_fn(manifold.exp(p, u, step))
    minus = value_fn(manifold.exp(p, u, -step))
    return (plus - 2.0 * value_fn(p) + minus) / (step * step)


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _family_check(manifold, seed, instances, directions, draw_problem, draw_point, draw_direction):
    """Max relative gradient/Hessian-form errors over seeded instances.

    Each instance draws, in this order, a problem ``(value, gradient,
    form)`` from ``draw_problem(rng)``, a point from ``draw_point(rng)`` and
    ``directions`` tangents from ``draw_direction(rng, p)``.  ``form(p, u)``
    is the second covariant differential of ``value`` against ``(u, u)``.
    """
    rng = rng_from_seed(seed)
    grad_err, hess_err = 0.0, 0.0
    for _ in range(instances):
        value, gradient, form = draw_problem(rng)
        p = draw_point(rng)
        dirs = [draw_direction(rng, p) for _ in range(directions)]
        g = gradient(p)
        for u in dirs:
            slope = geodesic_slope(value, manifold, p, u)
            grad_err = max(grad_err, relative_error(manifold.inner(p, g, u), slope))
            curv = geodesic_curvature(value, manifold, p, u)
            hess_err = max(hess_err, relative_error(form(p, u), curv))
    return grad_err, hess_err


def rayleigh_family_check(n=8, seed=0, instances=20, directions=8):
    """Max relative gradient/Hessian-form errors over seeded quotient instances."""

    def draw_problem(rng):
        prob = RayleighProblem(random_symmetric(rng, n))
        return (partial(rayleigh_value, prob), partial(rayleigh_gradient, prob),
                lambda x, u: float(rayleigh_hessian_apply(prob, x, u) @ u))

    return _family_check(Sphere(n), seed, instances, directions, draw_problem,
                         lambda rng: random_unit_vector(rng, n), random_unit_tangent)


def brockett_family_check(n=6, seed=0, instances=20, directions=8):
    N = np.diag(np.arange(n, 0, -1.0))

    def draw_problem(rng):
        prob = BrockettProblem(random_symmetric(rng, n), N)
        # second differential against (X, X) is -1/2 tr(L(X) X)
        return (partial(brockett_value, prob), partial(brockett_gradient, prob),
                lambda T, X: -0.5 * float(np.trace(brockett_hessian_operator(prob, T, X) @ X)))

    return _family_check(SpecialOrthogonal(n), seed, instances, directions, draw_problem,
                         lambda rng: random_rotation(rng, n), lambda rng, T: random_unit_skew(rng, n))


def jacobi_family_check(n=5, seed=0, instances=20, directions=8):

    def draw_problem(rng):
        prob = JacobiProblem(random_symmetric(rng, n))
        return (partial(jacobi_value, prob), partial(jacobi_gradient, prob),
                lambda T, X: -float(np.trace(jacobi_hessian_operator(prob, T, X) @ X)))

    return _family_check(SpecialOrthogonal(n), seed, instances, directions, draw_problem,
                         lambda rng: random_rotation(rng, n), lambda rng, T: random_unit_skew(rng, n))
