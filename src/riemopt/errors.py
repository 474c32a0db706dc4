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
    """Base for iteration failures; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class LineSearchFailed(SolverError):
    pass


class Diverged(SolverError):
    pass


class NonFinite(SolverError):
    """A gradient norm is NaN or infinite: the iterate holds NaN or inf."""


# --- harness ---

class ToleranceBreached(RiemoptError):
    pass
