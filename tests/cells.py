"""Honeycomb cells grouped from a mesh's subtriangles, for the tests
that count and check them; the library keeps no list of cells."""

import numpy as np

from hivevem.lattice import node_class


def group_cells(mesh):
    """The honeycomb cells of ``mesh`` as ``(anchors, members)``: every
    subtriangle joins the cell of its one class-0 vertex, the anchor.
    Anchors come ascending, each with its subtriangles ascending."""
    ij = mesh.node_ij[mesh.tris]
    is_anchor = node_class(ij[..., 0], ij[..., 1]) == 0
    assert np.all(is_anchor.sum(axis=1) == 1)
    anchor = mesh.tris[is_anchor]
    order = np.argsort(anchor, kind="stable")
    anchors, starts = np.unique(anchor[order], return_index=True)
    return anchors, np.split(order, starts[1:])


def census(mesh):
    """Counts of hexagons, pentagons and corner triangles.  A cell is a
    hexagon when its anchor is interior, a pentagon when the anchor
    lies on the boundary, and a corner triangle when it lies outside
    the closed domain, which an anchor that is a vertex never does."""
    anchors, _ = group_cells(mesh)
    i, j = mesh.node_ij[anchors].T
    outside = np.maximum(np.maximum(abs(i), abs(j)), abs(i + j)) > mesh.n
    boundary = mesh.on_boundary[anchors]
    return (int(np.count_nonzero(~boundary & ~outside)),
            int(np.count_nonzero(boundary)), int(np.count_nonzero(outside)))
