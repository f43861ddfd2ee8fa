"""Honeycomb meshes on the unit regular hexagon.

The computational domain is the regular hexagon with vertices
``(+-1, 0)`` and ``(+-1/2, +-sqrt(3)/2)``.  A mesh of refinement
``level`` is built from the equilateral triangular lattice with spacing
``s = 2**(1 - level)``:  lattice node ``(i, j)`` sits at

    x = s*(i + j/2),   y = s*j*sqrt(3)/2.

With ``n = 2**(level - 1) = 1/s`` the closed domain is exactly the set
of lattice nodes with ``max(|i|, |j|, |i+j|) <= n`` and the boundary is
the equality case, so membership tests are pure integer arithmetic.

Every unit lattice triangle has exactly one vertex in the residue class
``(i - j) % 3 == 0`` (the class of the origin).  Grouping subtriangles
by that vertex recovers the honeycomb cells:

* an interior class-0 node collects its six incident subtriangles and
  becomes the centre of a regular hexagon cell;
* a class-0 node on a straight boundary edge collects three and becomes
  the midpoint vertex of a pentagon cell (half a hexagon);
* corner-triangle cells, which the taxonomy reserves for group anchors
  falling outside the closed domain, cannot arise here: the anchor is a
  vertex of its member subtriangles and the domain is convex with
  boundary along lattice lines.  The kind is kept for completeness.

The domain corners themselves are never class-0 nodes because
``2**(level-1) % 3`` alternates between 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

SQRT3 = math.sqrt(3.0)

#: Exact area of the computational domain.
DOMAIN_AREA = 1.5 * SQRT3

#: Largest refinement level accepted by :func:`build_mesh`.  Memory grows
#: about fourfold per level: a level-10 study with the lift peaks at about
#: 510 MB, so level 11 would need about 2 GB.
MAX_LEVEL = 10

#: The six unit lattice steps, counterclockwise starting from +x.
HEX_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class MeshConstructionError(RuntimeError):
    """A structural invariant failed while building a mesh."""


class CellKind(Enum):
    HEXAGON = "hexagon"
    PENTAGON = "pentagon"
    CORNER_TRIANGLE = "corner-triangle"


@dataclass(frozen=True)
class Cell:
    """One honeycomb cell: an anchor node and its member subtriangles.

    The anchor is the shared class-0 node: the centre of a hexagon or
    the boundary midpoint vertex of a pentagon.
    """

    kind: CellKind
    anchor: int
    members: np.ndarray


def node_class(i, j):
    """Residue class of lattice node(s) relative to the hexagon centres."""
    return (np.asarray(i) - np.asarray(j)) % 3


def position(p, s: float):
    """Cartesian coordinates of lattice point(s) ``p`` at spacing ``s``."""
    ij = np.asarray(p)
    i = ij[..., 0]
    j = ij[..., 1]
    return np.stack([s * (i + 0.5 * j), s * (0.5 * SQRT3) * j], axis=-1)


@dataclass
class HoneycombMesh:
    """Honeycomb mesh and its auxiliary triangular submesh.

    Attributes
    ----------
    level : int
        Refinement level; hexagon edge is ``s = 2**(1 - level)``.
    node_ij : (N, 2) int array
        Lattice coordinates of all nodes in the closed domain.
    node_xy : (N, 2) float array
        Cartesian node positions.
    on_boundary, is_center : (N,) bool arrays
        Boundary flag and interior hexagon-centre flag.  Mesh vertices
        (the honeycomb degrees of freedom) are the nodes that are not
        interior centres; pentagon midpoint vertices lie on the
        boundary and therefore count as mesh vertices.
    tris : (T, 3) int array
        Subtriangles of the auxiliary mesh, vertices counterclockwise.
    cell_anchors : (M,) int array
        Anchor node of every honeycomb cell, ascending.
    cell_members : (T,) int array
        Subtriangle indices grouped by cell, ascending within a cell;
        cell ``k`` owns ``cell_members[cell_offsets[k]:cell_offsets[k+1]]``.
    cell_offsets : (M + 1,) int array
        Group boundaries in ``cell_members``.
    center_corners : (C, 6) int array
        For every interior centre, its six surrounding corner nodes in
        counterclockwise order (rows align with ``centers``).
    """

    level: int
    s: float
    n: int
    node_ij: np.ndarray
    node_xy: np.ndarray
    on_boundary: np.ndarray
    is_center: np.ndarray
    tris: np.ndarray
    cell_anchors: np.ndarray
    cell_members: np.ndarray
    cell_offsets: np.ndarray
    centers: np.ndarray
    nh_nodes: np.ndarray
    center_corners: np.ndarray
    _lookup: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.node_ij.shape[0]

    @cached_property
    def cells(self) -> list[Cell]:
        """Honeycomb cells ordered by anchor node index, built on first
        read from the anchor and member arrays."""
        offsets = self.cell_offsets
        return [
            Cell(
                CellKind.PENTAGON if self.on_boundary[a] else CellKind.HEXAGON,
                int(a),
                self.cell_members[offsets[k]:offsets[k + 1]],
            )
            for k, a in enumerate(self.cell_anchors)
        ]

    @property
    def n_tris(self) -> int:
        return self.tris.shape[0]

    @property
    def tri_area(self) -> float:
        """Common area of the equilateral subtriangles."""
        return 0.25 * SQRT3 * self.s * self.s

    def node_index(self, i: int, j: int) -> int:
        """Index of lattice node ``(i, j)``; -1 if outside the domain."""
        n = self.n
        if abs(i) > n or abs(j) > n or abs(i + j) > n:
            return -1
        return int(self._lookup[i + n, j + n])

    def tri_xy(self) -> np.ndarray:
        """Vertex coordinates of every subtriangle, shape (T, 3, 2)."""
        return self.node_xy[self.tris]


def build_mesh(level: int) -> HoneycombMesh:
    """Build the honeycomb mesh of the given refinement level.

    Parameters
    ----------
    level : int
        Between 1 and ``MAX_LEVEL``.  Level 1 is the single hexagon
        that coincides with the domain.

    Raises
    ------
    ValueError
        If the level is out of range.
    MeshConstructionError
        If a structural invariant fails (defensive; should not happen).
    """
    if not isinstance(level, (int, np.integer)):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not 1 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [1, {MAX_LEVEL}], got {level}")

    n = 2 ** (level - 1)
    s = 1.0 / n
    size = 2 * n + 1

    rng = np.arange(-n, n + 1)
    I, J = np.meshgrid(rng, rng, indexing="ij")
    inside = np.maximum(np.maximum(np.abs(I), np.abs(J)), np.abs(I + J)) <= n

    lookup = -np.ones((size, size), dtype=np.int64)
    n_nodes = int(inside.sum())
    lookup[inside] = np.arange(n_nodes)

    node_ij = np.stack([I[inside], J[inside]], axis=1)
    expected_nodes = 3 * n * n + 3 * n + 1
    if n_nodes != expected_nodes:
        raise MeshConstructionError(
            f"node count {n_nodes} != {expected_nodes} at level {level}"
        )

    node_xy = position(node_ij, s)
    maxnorm = np.maximum(
        np.maximum(np.abs(node_ij[:, 0]), np.abs(node_ij[:, 1])),
        np.abs(node_ij[:, 0] + node_ij[:, 1]),
    )
    on_boundary = maxnorm == n
    cls = node_class(node_ij[:, 0], node_ij[:, 1])
    is_center = (cls == 0) & ~on_boundary

    # Upward subtriangles (i,j),(i+1,j),(i,j+1) and downward ones
    # (i,j+1),(i+1,j),(i+1,j+1), both orderings counterclockwise.
    up_ok = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:]
    dn_ok = inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    up = np.stack(
        [lookup[:-1, :-1][up_ok], lookup[1:, :-1][up_ok], lookup[:-1, 1:][up_ok]],
        axis=1,
    )
    dn = np.stack(
        [lookup[:-1, 1:][dn_ok], lookup[1:, :-1][dn_ok], lookup[1:, 1:][dn_ok]],
        axis=1,
    )
    tris = np.concatenate([up, dn], axis=0)
    if tris.shape[0] != 6 * n * n:
        raise MeshConstructionError(
            f"subtriangle count {tris.shape[0]} != {6 * n * n} at level {level}"
        )

    # Each subtriangle must own exactly one class-0 vertex: its anchor.
    tri_cls0 = cls[tris] == 0
    per_tri = tri_cls0.sum(axis=1)
    if not np.all(per_tri == 1):
        raise MeshConstructionError("subtriangle without unique class-0 vertex")
    anchors = tris[np.arange(tris.shape[0]), np.argmax(tri_cls0, axis=1)]

    # A stable sort keeps each cell's members in ascending order.
    order = np.argsort(anchors, kind="stable")
    cell_anchors, starts, counts = np.unique(
        anchors[order], return_index=True, return_counts=True
    )
    bad = np.flatnonzero(counts != np.where(on_boundary[cell_anchors], 3, 6))
    if bad.size:
        anchor = int(cell_anchors[bad[0]])
        where = "boundary" if on_boundary[anchor] else "interior"
        raise MeshConstructionError(
            f"{where} anchor {anchor} has {counts[bad[0]]} subtriangles"
        )

    centers = np.flatnonzero(is_center)
    nh_nodes = np.flatnonzero(~is_center)

    # Six corners around every interior centre, all of which must exist.
    dirs = np.array(HEX_DIRECTIONS)
    cij = node_ij[centers]
    corner_idx = lookup[
        cij[:, None, 0] + dirs[None, :, 0] + n,
        cij[:, None, 1] + dirs[None, :, 1] + n,
    ]
    if np.any(corner_idx < 0):
        raise MeshConstructionError("interior centre with corner outside domain")

    return HoneycombMesh(
        level=level,
        s=s,
        n=n,
        node_ij=node_ij,
        node_xy=node_xy,
        on_boundary=on_boundary,
        is_center=is_center,
        tris=tris,
        cell_anchors=cell_anchors,
        cell_members=order,
        cell_offsets=np.append(starts, order.size),
        centers=centers,
        nh_nodes=nh_nodes,
        center_corners=corner_idx,
        _lookup=lookup,
    )


def boundary_nodes(mesh: HoneycombMesh) -> np.ndarray:
    """Indices of the nodes on the domain boundary."""
    return np.flatnonzero(mesh.on_boundary)
