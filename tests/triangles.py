"""Geometry of triangles given by their vertices: quadrature on one
triangle, for the tests that check the tabulated rules against
closed-form integrals, the P1 gradients, the oracle of the element
stiffness, and the subtriangles of each lift patch, found by their
centroids."""

import numpy as np

from hivevem.lattice import position
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


def patch_subtriangles(grid) -> np.ndarray:
    """Subtriangle indices (P, 16) of every patch of a lift patch grid,
    ascending in each row, found by geometry alone: a subtriangle belongs
    to the patch triangle that holds its centroid.  Every centroid is
    tested against every patch, from the corners' lattice coordinates,
    and each subtriangle must have exactly one owner, each patch 16."""
    mesh = grid.mesh
    centroid = mesh.node_xy[mesh.tris].mean(axis=1)               # (T, 2)
    a, b, c = np.moveaxis(position(grid.corners_ij, mesh.s), 1, 0)  # (P, 2)

    def side(p, q):
        """Signed area of (p, q, centroid), (P, T): positive on the left."""
        d = centroid - p[:, None]
        e = (q - p)[:, None]
        return e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]

    inside = (side(a, b) > 0) & (side(b, c) > 0) & (side(c, a) > 0)
    owners = inside.sum(axis=0)
    assert np.all(owners == 1), f"subtriangles with {set(owners.tolist())} owners"
    owner = inside.argmax(axis=0)
    assert np.all(np.bincount(owner, minlength=grid.n_patches) == 16)
    return np.argsort(owner, kind="stable").reshape(grid.n_patches, -1)
