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

#: Largest refinement level accepted by :func:`build_mesh`.  Memory grows
#: about fourfold per level.  On a 2-core x86 VM, ``study --min-level 10
#: --max-level 10 --lift`` peaks at 428 MB (``ru_maxrss``) in about 10 s
#: and ``export --level 10 --what lift`` at 428 MB in about 12 s, so
#: level 11 would need about 2 GB.  Both solve with CG; the direct
#: solver needs about 2 GB at level 10.
MAX_LEVEL = 10

#: The six unit lattice steps, counterclockwise starting from +x.
HEX_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

#: Lattice steps from cell (i, j) to the vertices of its unit triangles
#: of kind 0 and kind 1, counterclockwise: the vertex order of ``tris``.
UNIT_TRIANGLES = np.array([[(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])


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
    centers, nh_nodes : int arrays
        Indices of the interior centres and of all other nodes.
    free : int array
        Indices of the free nodes, ascending: the interior mesh vertices,
        neither on the boundary nor a centre.  They index the degrees of
        freedom of the discrete system.

    :meth:`index` maps lattice coordinates to node indices,
    :meth:`neighbours` unit steps from every node to node indices, and
    :meth:`tri_index` lattice unit triangles to subtriangle indices,
    through :attr:`tri_table`.  :attr:`tri_table`,
    :attr:`center_corners` and :attr:`cells` are derived on first read;
    :func:`build_mesh` has checked the last two already.
    """

    level: int
    s: float
    n: int
    node_ij: np.ndarray
    node_xy: np.ndarray
    on_boundary: np.ndarray
    is_center: np.ndarray
    tris: np.ndarray
    centers: np.ndarray
    nh_nodes: np.ndarray
    free: np.ndarray
    _lookup: np.ndarray  # [i + n + 1, j + n + 1]: node index, int32, -1 outside

    @property
    def n_nodes(self) -> int:
        return self.node_ij.shape[0]

    def index(self, i, j):
        """Node indices of the lattice points ``(i, j)``, -1 for every
        point outside the closed hexagon.

        ``i`` and ``j`` are integer scalars or arrays that broadcast;
        the result has their shape.  The table holds the square
        ``|i|, |j| <= n`` and a ring of -1 around it, and clipping takes
        every point beyond the square onto the ring.
        """
        m = self.n + 1
        return self._lookup[np.clip(i, -m, m) + m, np.clip(j, -m, m) + m]

    def neighbours(self, steps) -> np.ndarray:
        """Node indices at the lattice ``steps`` (k, 2) from every node,
        shape (N, k), -1 for every point outside the closed hexagon.

        Each step's components lie in -1..1, so the point stays on the
        table or its ring of -1, and a flat offset into the table finds
        it without clipping.
        """
        width = self._lookup.shape[1]
        at = (self.node_ij + self.n + 1) @ (width, 1)
        return self._lookup.ravel()[at[:, None] + np.asarray(steps) @ (width, 1)]

    def tri_index(self, i, j, kind):
        """Subtriangle indices of the lattice unit triangles of kind 0,
        ``(i,j),(i+1,j),(i,j+1)``, or kind 1, ``(i,j+1),(i+1,j),(i+1,j+1)``,
        -1 for every triangle not inside the closed hexagon.

        Arguments broadcast as in :meth:`index`, and read :attr:`tri_table`.
        """
        m = self.n + 1
        table = self.tri_table
        return table[np.clip(i, -m, m - 1) + m, np.clip(j, -m, m - 1) + m, kind]

    @cached_property
    def tri_table(self) -> np.ndarray:
        """Subtriangle indices by cell and kind, ``[i + n + 1, j + n + 1,
        kind]``: the cells ``-n <= i, j < n`` and a ring of -1 around
        them, with -1 for every triangle outside the closed hexagon.
        Built on first read from the order in which :func:`build_mesh`
        emits ``tris``."""
        # ``tris`` holds the kind-0 triangles, then the kind-1 ones, each
        # row-major over the cells; counting them in that order numbers them.
        ok = np.stack(_unit_triangles_inside(self._lookup[1:-1, 1:-1] >= 0))
        table = np.where(ok, np.cumsum(ok).reshape(ok.shape) - 1, -1)
        return np.pad(table.transpose(1, 2, 0), ((1, 1), (1, 1), (0, 0)),
                      constant_values=-1)

    @cached_property
    def center_corners(self) -> np.ndarray:
        """For every interior centre, its six surrounding corner nodes in
        counterclockwise order, shape (C, 6); rows align with ``centers``."""
        ij = self.node_ij[self.centers, :, None] + np.array(HEX_DIRECTIONS).T
        return self.index(ij[:, 0], ij[:, 1])

    @cached_property
    def cells(self) -> list[Cell]:
        """Honeycomb cells ordered by anchor node index, members
        ascending within a cell; grouped on first read."""
        anchors = self.tris[node_class(*self.node_ij.T)[self.tris] == 0]
        # A stable sort keeps each cell's members in ascending order.
        order = np.argsort(anchors, kind="stable")
        cell_anchors, starts = np.unique(anchors[order], return_index=True)
        return [
            Cell(
                CellKind.PENTAGON if self.on_boundary[a] else CellKind.HEXAGON,
                int(a),
                members,
            )
            for a, members in zip(cell_anchors, np.split(order, starts[1:]))
        ]

    @property
    def n_tris(self) -> int:
        return self.tris.shape[0]

    @property
    def tri_area(self) -> float:
        """Common area of the equilateral subtriangles."""
        return 0.25 * SQRT3 * self.s * self.s


def _at_vertices(table: np.ndarray, kind: int) -> list[np.ndarray]:
    """Views of ``table``, over a square of lattice points, at the three
    vertices of the unit triangle of ``kind`` of every cell, in
    :data:`UNIT_TRIANGLES` order; the cells are the square without its
    last row and column."""
    c = table.shape[0] - 1
    return [table[di:di + c, dj:dj + c] for di, dj in UNIT_TRIANGLES[kind]]


def _unit_triangles_inside(inside: np.ndarray) -> list[np.ndarray]:
    """Masks of the cells whose kind-0 and kind-1 unit triangles have all
    three vertices ``inside``, a node mask over a square of lattice
    points."""
    return [np.logical_and.reduce(_at_vertices(inside, k)) for k in (0, 1)]


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
    norm = np.maximum(np.maximum(np.abs(I), np.abs(J)), np.abs(I + J))
    inside = norm <= n

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
    on_boundary = norm[inside] == n
    cls = node_class(node_ij[:, 0], node_ij[:, 1])
    is_center = (cls == 0) & ~on_boundary

    # The unit triangles of kind 0, then those of kind 1, row-major over
    # the cells, with their vertices in ``UNIT_TRIANGLES`` order.  Both
    # kinds stay referenced to the end: freed early, they lower this
    # function's traced peak, yet on a 2-core x86 VM the level-10
    # study's ru_maxrss rose from 486 to 491 MB, as the allocator placed
    # the later arrays of assembly and solve anew.
    kinds = [
        np.stack([v[ok] for v in _at_vertices(lookup, k)], axis=1)
        for k, ok in enumerate(_unit_triangles_inside(inside))
    ]
    tris = np.concatenate(kinds)
    if tris.shape[0] != 6 * n * n:
        raise MeshConstructionError(
            f"subtriangle count {tris.shape[0]} != {6 * n * n} at level {level}"
        )

    # Each subtriangle must own exactly one class-0 vertex: its anchor.
    tri_cls0 = cls[tris] == 0
    if not np.all(tri_cls0.sum(axis=1) == 1):
        raise MeshConstructionError("subtriangle without unique class-0 vertex")
    # Interior class-0 nodes anchor 6 subtriangles, boundary ones 3.
    count = np.bincount(tris[tri_cls0], minlength=n_nodes)
    want = np.where(cls == 0, np.where(on_boundary, 3, 6), 0)
    bad = np.flatnonzero(count != want)
    if bad.size:
        node = int(bad[0])
        where = "boundary" if on_boundary[node] else "interior"
        raise MeshConstructionError(
            f"{where} node {node} anchors {count[node]} subtriangles, "
            f"not {want[node]}"
        )

    mesh = HoneycombMesh(
        level=level,
        s=s,
        n=n,
        node_ij=node_ij,
        node_xy=node_xy,
        on_boundary=on_boundary,
        is_center=is_center,
        tris=tris,
        centers=np.flatnonzero(is_center),
        nh_nodes=np.flatnonzero(~is_center),
        free=np.flatnonzero(~is_center & ~on_boundary),
        _lookup=np.pad(lookup.astype(np.int32), 1, constant_values=-1),
    )
    # Six corners around every interior centre, all of which must exist.
    if np.any(mesh.center_corners < 0):
        raise MeshConstructionError("interior centre with corner outside domain")
    return mesh
