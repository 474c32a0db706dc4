"""Independent accuracy checks for one solve.

Every check here uses numpy alone, never riemopt, so a defect in the
library cannot also hide in its own verdict.  Each check returns
``(ok, error)``: whether the answer meets its target, and the measured
error that was compared against it.  A non-finite answer never passes.
"""

from __future__ import annotations

import numpy as np

#: Accuracy targets.  The eigenpair and rotation targets are relative to
#: ``|Q|_F``, the scale the library's own stopping rules use; the sphere
#: target is an angle in radians.
TARGETS = {
    "eigen_residual": 1e-10,   # |Q x - rho x| / |Q|_F
    "eigen_value": 1e-10,      # |rho - nearest eigh eigenvalue| / |Q|_F
    "unit": 1e-10,             # | |x| - 1 |
    "axis_angle": 1e-8,        # angle between x and the top axis (fig1)
    "brockett": 1e-10,         # |T'QT - D|_F / |Q|_F (fig2)
    "offdiag": 1e-10,          # off-diagonal norm of T'QT / |Q|_F (jacobi)
    "orthogonal": 1e-10,       # |T'T - I|_F
}


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def check_eigenpair(Q, eigenvalues, rho, x):
    """Eigenpair ``(rho, x)`` of symmetric ``Q`` against the sorted
    ``numpy.linalg.eigh`` spectrum ``eigenvalues``.  The error is the larger
    of the relative residual and the relative distance from ``rho`` to the
    nearest reference eigenvalue."""
    x = np.asarray(x, dtype=float)
    if not _finite(x, np.asarray(rho, dtype=float)):
        return False, float("inf")
    scale = float(np.linalg.norm(Q))
    unit_err = abs(float(np.linalg.norm(x)) - 1.0)
    residual = float(np.linalg.norm(Q @ x - rho * x)) / scale
    gap = float(np.min(np.abs(eigenvalues - rho))) / scale
    ok = (unit_err <= TARGETS["unit"] and residual <= TARGETS["eigen_residual"]
          and gap <= TARGETS["eigen_value"])
    return ok, max(residual, gap)


def check_top_axis(x):
    """Sphere point ``x`` against the top eigenvector ``e_1`` of
    ``diag(n, ..., 1)``; the error is the angle to that axis."""
    x = np.asarray(x, dtype=float)
    if not _finite(x):
        return False, float("inf")
    unit_err = abs(float(np.linalg.norm(x)) - 1.0)
    c = abs(float(x[0]))
    s = float(np.linalg.norm(x[1:]))
    angle = float(np.arctan2(s, c))
    return unit_err <= TARGETS["unit"] and angle <= TARGETS["axis_angle"], angle


def _rotation_ok(T):
    n = T.shape[0]
    return (float(np.linalg.norm(T.T @ T - np.eye(n))) <= TARGETS["orthogonal"]
            and float(np.linalg.det(T)) > 0.0)


def check_sorted_diagonal(Q, T):
    """Rotation ``T`` maximizing ``tr(T'QTN)`` with ``N = diag(n, ..., 1)``:
    ``H = T'QT`` must equal the diagonal of the eigenvalues of ``Q`` in
    descending order.  The error is ``|H - D|_F / |Q|_F``."""
    T = np.asarray(T, dtype=float)
    if not _finite(T):
        return False, float("inf")
    H = T.T @ Q @ T
    D = np.diag(np.sort(np.linalg.eigvalsh(Q))[::-1])
    err = float(np.linalg.norm(H - D)) / float(np.linalg.norm(Q))
    return _rotation_ok(T) and err <= TARGETS["brockett"], err


def check_diagonalizer(Q, T):
    """Rotation ``T`` diagonalizing ``Q``; the error is the off-diagonal
    norm of ``T'QT`` relative to ``|Q|_F``."""
    T = np.asarray(T, dtype=float)
    if not _finite(T):
        return False, float("inf")
    H = T.T @ Q @ T
    err = float(np.linalg.norm(H - np.diag(np.diag(H)))) / float(np.linalg.norm(Q))
    return _rotation_ok(T) and err <= TARGETS["offdiag"], err
