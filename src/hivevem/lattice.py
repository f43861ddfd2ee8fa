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
``(i - j) % 3 == 0`` (the class of the origin), its anchor.  Grouping
subtriangles by their anchor gives the honeycomb cells, which the mesh
describes through ``is_center``, ``on_boundary`` and ``center_corners``
rather than as a list:

* an interior class-0 node collects its six incident subtriangles and
  becomes the centre of a regular hexagon cell;
* a class-0 node on a straight boundary edge collects three and becomes
  the midpoint vertex of a pentagon cell (half a hexagon);
* corner-triangle cells, which the taxonomy reserves for anchors
  falling outside the closed domain, cannot arise here: the anchor is a
  vertex of its member subtriangles and the domain is convex with
  boundary along lattice lines.

The domain corners themselves are never class-0 nodes because
``2**(level-1) % 3`` alternates between 1 and 2.  These are facts of the
lattice, not of the data, so :func:`build_mesh` does not re-check them;
the tests check the anchors (one per subtriangle, six per centre and
three per boundary class-0 node), the counts and the centres' corners.

The nodes are numbered row-major in i, then j, through a table over
the square ``|i|, |j| <= n + 1``: the nodes and a ring of -1 around
them.  Lattice steps are then fixed flat offsets into the table, so the
subtriangles, the corners of the centres and the neighbours of the
nodes are gathers at a node's or a cell's offset plus the steps'.  A
second table, ``tri_table``, numbers the subtriangles by cell and kind.

:func:`check_level` is the one test of a refinement level: the mesh,
the lift's patch grid and the command line's settings all ask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT3 = math.sqrt(3.0)

#: Largest refinement level accepted by :func:`check_level`.  Memory grows
#: about fourfold per level.  On a 2-core x86 VM (medians of three runs,
#: ``OPENBLAS_NUM_THREADS=1``), ``study --min-level 10 --max-level 10
#: --lift`` peaks at 383 MB (``ru_maxrss``) in about 4.5 s and ``export
#: --level 10 --what lift`` at 383 MB in about 6.5 s, so level 11 would
#: need about 2 GB.  Both solve with CG, which never loads SuperLU, the
#: program's one solver path.
MAX_LEVEL = 10

#: The six unit lattice steps, counterclockwise starting from +x.
HEX_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

#: Lattice steps from cell (i, j) to the vertices of its unit triangles
#: of kind 0 and kind 1, counterclockwise: the vertex order of ``tris``.
UNIT_TRIANGLES = np.array([[(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])


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

    :meth:`index` maps lattice coordinates to node indices and
    :meth:`neighbours` unit steps from every node to node indices.
    :attr:`tri_table` maps lattice unit triangles, by cell and kind, to
    subtriangle indices.  It and :attr:`center_corners` are derived on
    first read.
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
        return self._lookup.ravel()[self._flat(np.clip(i, -m, m), np.clip(j, -m, m))]

    def _flat(self, i, j):
        """Flat offsets into the table of the lattice points ``(i, j)``
        on it."""
        width = self._lookup.shape[1]
        return i * width + j + (self.n + 1) * (width + 1)

    def neighbours(self, steps) -> np.ndarray:
        """Node indices at the lattice ``steps`` (k, 2) from every node,
        shape (N, k), -1 for every point outside the closed hexagon.

        Each step's components lie in -1..1, so the point stays on the
        table or its ring of -1, and a flat offset into the table finds
        it without clipping.
        """
        return self._steps_from(self.node_ij, steps)

    def _steps_from(self, ij, steps) -> np.ndarray:
        """Node indices at the lattice ``steps`` (k, 2) from the nodes
        at ``ij`` (m, 2), shape (m, k), by flat offsets into the table."""
        at = self._flat(ij[:, 0], ij[:, 1])
        width = self._lookup.shape[1]
        return self._lookup.ravel()[at[:, None] + np.asarray(steps) @ (width, 1)]

    @cached_property
    def tri_table(self) -> np.ndarray:
        """Subtriangle indices by cell and kind, ``[i + n + 1, j + n + 1,
        kind]``: kind 0 is ``(i,j),(i+1,j),(i,j+1)`` and kind 1
        ``(i,j+1),(i+1,j),(i+1,j+1)``.  The table spans the cells
        ``-n <= i, j < n`` and a ring of -1 around them, with -1 for
        every triangle outside the closed hexagon.
        Built on first read from the vertices of ``tris``."""
        # Vertex 1 of the kind-k triangle in cell (i, j) is (i + 1, j),
        # and vertex 0 is (i, j + k).
        v0, v1 = (np.take(self.node_ij, self.tris[:, c], axis=0) for c in (0, 1))
        n = self.n
        table = np.full((2 * n + 2, 2 * n + 2, 2), -1)
        table[v1[:, 0] + n, v1[:, 1] + n + 1, v0[:, 1] - v1[:, 1]] = np.arange(len(v1))
        return table

    @cached_property
    def center_corners(self) -> np.ndarray:
        """For every interior centre, its six surrounding corner nodes in
        counterclockwise order, shape (C, 6); rows align with ``centers``."""
        return self._steps_from(np.take(self.node_ij, self.centers, axis=0),
                                HEX_DIRECTIONS)

    @property
    def n_tris(self) -> int:
        return self.tris.shape[0]

    @property
    def tri_area(self) -> float:
        """Common area of the equilateral subtriangles."""
        return 0.25 * SQRT3 * self.s * self.s


def check_level(level, lowest: int = 1) -> None:
    """Raise ``ValueError`` unless ``level`` is an integer, not a bool,
    between ``lowest`` and :data:`MAX_LEVEL`."""
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not lowest <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{lowest}, {MAX_LEVEL}], got {level}")


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
        If :func:`check_level` refuses the level.
    """
    check_level(level)

    n = 2 ** (level - 1)
    s = 1.0 / n
    # The node table spans |i|, |j| <= n + 1: the nodes and a ring of -1.
    width = 2 * n + 3

    rng = np.arange(-n - 1, n + 2)
    I, J = np.meshgrid(rng, rng, indexing="ij")
    norm = np.maximum(np.maximum(np.abs(I), np.abs(J)), np.abs(I + J)).ravel()
    inside = norm <= n
    at = np.flatnonzero(inside)  # the nodes' flat offsets, row-major
    lookup = np.full(width * width, -1)
    lookup[at] = np.arange(at.size)

    node_ij = np.stack([I.ravel()[at], J.ravel()[at]], axis=1)
    node_xy = position(node_ij, s)
    on_boundary = norm[at] == n
    is_center = (node_class(node_ij[:, 0], node_ij[:, 1]) == 0) & ~on_boundary

    # The unit triangles of kind 0, then those of kind 1, row-major over
    # the cells, with their vertices in ``UNIT_TRIANGLES`` order: at a
    # cell's flat offset plus ``steps``.  A triangle is kept when its
    # three vertices are inside; the table's ring lies outside, so one
    # that wraps round a row or leaves the table is not.
    steps = UNIT_TRIANGLES @ (width, 1)
    span = inside.size - width - 1
    cells = [np.flatnonzero(np.logical_and.reduce([inside[o:o + span] for o in off]))
             for off in steps]
    tris = np.stack([lookup[np.concatenate([c + o for c, o in zip(cells, off)])]
                     for off in steps.T], axis=1)

    return HoneycombMesh(
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
        _lookup=lookup.astype(np.int32).reshape(width, width),
    )
