"""Geodesic optimization on the unit sphere and the rotation group.

Three solvers (steepest descent, Newton, conjugate gradient) run over a
small manifold contract with closed-form geodesics and parallel
translation.  Applications: extreme symmetric eigenpairs via the Rayleigh
quotient, and matrix diagonalization via trace objectives on the
isospectral orbit of the rotation group.
"""

from . import errors
from .core import (
    ConvergenceReport,
    GeodesicObjective,
    IterationTrace,
    Manifold,
    STAGNATION_FLOOR,
    estimate_order,
    longest_decreasing_run,
)
from .eigensolvers import EigenResult, cg_extreme_eigen, newton_rayleigh, rqi
from .rotation import (
    BrockettObjective,
    JacobiObjective,
    SpecialOrthogonal,
    brockett_third_component,
    so_geodesic,
    so_transport,
)
from .solvers import (
    LineSearchResult,
    SolverConfig,
    conjugate_gradient,
    line_minimize_geodesic,
    newton,
    steepest_descent,
)
from .sphere import (
    RayleighObjective,
    Sphere,
    rayleigh_line_max,
    rayleigh_newton_step,
    sphere_distance,
    sphere_exp,
    sphere_log,
    sphere_transport,
)

__all__ = [
    "BrockettObjective",
    "ConvergenceReport",
    "EigenResult",
    "GeodesicObjective",
    "IterationTrace",
    "JacobiObjective",
    "LineSearchResult",
    "Manifold",
    "RayleighObjective",
    "STAGNATION_FLOOR",
    "SolverConfig",
    "SpecialOrthogonal",
    "Sphere",
    "brockett_third_component",
    "cg_extreme_eigen",
    "conjugate_gradient",
    "errors",
    "estimate_order",
    "line_minimize_geodesic",
    "longest_decreasing_run",
    "newton",
    "newton_rayleigh",
    "rayleigh_line_max",
    "rayleigh_newton_step",
    "rqi",
    "so_geodesic",
    "so_transport",
    "sphere_distance",
    "sphere_exp",
    "sphere_log",
    "sphere_transport",
    "steepest_descent",
]

__version__ = "0.1.0"
