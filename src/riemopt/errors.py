"""Exception types raised by the geometry, solver, and harness layers."""


class RiemoptError(Exception):
    """Base class for all library-specific errors."""


# --- convergence-order estimation ---

class OrderFitError(RiemoptError):
    pass


# --- geometry ---

class GeometryError(RiemoptError):
    pass


class ZeroTangent(GeometryError):
    pass


class NotUnitDirection(GeometryError):
    pass


class NotTangent(GeometryError):
    pass


class AntipodalPoints(GeometryError):
    pass


class NotRotation(GeometryError):
    pass


# --- objectives ---

class StepDeclined(RiemoptError):
    """The objective declines a Newton direction or a step estimate here;
    ``newton`` then takes a line-minimized gradient step."""


# --- solvers ---

class SolverError(RiemoptError):
    """Base for iteration failures; the solvers' loop sets ``trace``, its partial trace."""

    trace = None


class LineSearchFailed(SolverError):
    pass


class Diverged(SolverError):
    pass


class NonFinite(SolverError):
    """A gradient norm is NaN or infinite: the iterate holds NaN or inf."""
