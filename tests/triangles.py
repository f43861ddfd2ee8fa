"""Quadrature on one triangle given by its vertices, for the tests that
check the tabulated rules against closed-form integrals."""

import numpy as np

from hivevem.quadrature import QuadratureRule


def triangle_area(tri: np.ndarray) -> float:
    """Unsigned area from the three vertex coordinates, shape (3, 2)."""
    u = tri[1] - tri[0]
    v = tri[2] - tri[0]
    return 0.5 * abs(u[0] * v[1] - u[1] * v[0])


def integrate(tri: np.ndarray, g, q: QuadratureRule) -> float:
    """Integrate ``g(x, y)`` over one triangle given by its vertices."""
    tri = np.asarray(tri, dtype=float)
    pts = q.points @ tri
    vals = g(pts[:, 0], pts[:, 1])
    return triangle_area(tri) * float(np.dot(q.weights, vals))
