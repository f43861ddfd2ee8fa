"""Geometry of triangles given by their vertices: quadrature on one
triangle, for the tests that check the tabulated rules against
closed-form integrals, and the P1 gradients, the oracle of the element
stiffness."""

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


def p1_gradients(tri_xy: np.ndarray):
    """Constant P1 basis gradients on triangles.

    Parameters
    ----------
    tri_xy : (T, 3, 2) array
        Vertex coordinates, counterclockwise.

    Returns
    -------
    grads : (T, 3, 2) array
        Gradient of the hat function of each local vertex.
    area : (T,) array
        Signed areas (positive for counterclockwise input).
    """
    x = tri_xy[..., 0]
    y = tri_xy[..., 1]
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    grads = np.stack([bx, by], axis=2) / area2[:, None, None]
    return grads, 0.5 * area2
