"""Patchwise cubic lift of the honeycomb solution.

From level 3 on, the domain is tiled by equilateral patches whose edge
is four hexagon edges ``L = 4s``: the patches are the subtriangles of
the mesh two levels coarser, of both kinds, numbered as its ``tris``.
A patch contains 16 subtriangles and carries the 15 lattice sites of
its degree-4 principal lattice; exactly one of its three corners is of
the hexagon-centre class.  The grid is built by integer lattice
arithmetic from the coarse mesh, and a lower level is refused by
:func:`~hivevem.lattice.check_level`.  A point is located in the frame of
the coarse lattice, where every patch is a unit triangle: its lattice
coordinates give its cell, the coarse mesh's
:attr:`~hivevem.lattice.HoneycombMesh.tri_table` gives the 18 patches
of the 3x3 cells around it, and one constant table gives their
barycentric coordinates as affine functions of the coordinates, the
same at every level.

On every patch a full bivariate cubic (10 coefficients) is fitted by
least squares to solution data at the 15 sites.  Mesh vertices carry
nodal solution values; interior hexagon centres carry the centre value
plus ``(s**2/4) * f``, which cancels the second-order gap between a
centre value (the mean of the six corners) and the underlying smooth
function, so the data is fourth-order accurate.  Fits use a scaled
local frame, origin at the patch centroid and coordinates divided by
L, so design matrices stay well conditioned uniformly in the level.  In
that frame the sites depend only on the patch's frame, the kind of its
coarse unit triangle, which fixes the two lattice steps along its edges
from its corner 0.  So there are two design matrices in all, one per
frame, the same at every level; each has rank 10, which the tests
check, and its pseudo-inverse is built once, at import.  The rank and
the smallest singular value of each fit are therefore constants of the
lattice, :data:`FRAME_SIGMA_MIN`; each fit's residual is reported in
:class:`LiftResult`.  For the same reason the degree-6 rule on a
patch's 16 subtriangles, its points in the frame and the monomials at
them, is tabulated once per frame at import; :func:`patch_quadrature`
hands it to the error norms.

The tests keep the reference data schemes that the program does not
run: the ``paper11`` site set (the mesh vertices plus the centre-class
corner), with plain or corrected centre data, and exact solution values
at the centres.  They fit them with their own least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (
    SQRT3, UNIT_TRIANGLES, HoneycombMesh, build_mesh, check_level, position,
)
from .problem import ManufacturedProblem
from .quadrature import blocks, rule, sample
from .system import FieldP1

MIN_LIFT_LEVEL = 3

#: Exponent pairs of the cubic monomial basis, constant term first.
MONOMIAL_POWERS = (
    (0, 0), (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
)
_P, _Q = np.array(MONOMIAL_POWERS).T
#: Factors, X exponents and Y exponents of the monomials (column 0) and
#: of their X and Y derivatives (columns 1, 2).
_FACTOR, _XPOW, _YPOW = np.array([
    [np.ones(10), _P, _Q],
    [_P, np.maximum(_P - 1, 0), _P],
    [_Q, _Q, np.maximum(_Q - 1, 0)],
])

#: Local (a, b) lattice coordinates of the 15 patch sites, the site ids
#: of the three corners, and the vertices of the 16 subtriangles.
_SITE_AB = np.array([(a, b) for a in range(5) for b in range(5 - a)])
_CORNER_SITES = np.array([0, 4, 14])
_SUB_AB = np.array(
    [[(a, b), (a + 1, b), (a, b + 1)] for a in range(4) for b in range(4 - a)]
    + [[(a + 1, b), (a, b + 1), (a + 1, b + 1)]
       for a in range(3) for b in range(3 - a)]
)

#: Site ids of the vertices of the 16 subtriangles, ``_SUB_AB`` as
#: indices into the 15 sites.
SUB_SITES = (_SUB_AB[:, :, None] == _SITE_AB).all(axis=-1).argmax(axis=-1)

#: Lattice steps along the two edges from corner 0 of a patch, to its
#: corners 1 and 2, by frame: the kind of the patch's coarse triangle.
_FRAMES = UNIT_TRIANGLES[:, 1:] - UNIT_TRIANGLES[:, :1]

#: Maps (x, y) to lattice coordinates (i, j) at unit spacing, and the
#: coarse cells searched around the cell of a point.
_TO_LATTICE = np.array([[1.0, 0.0], [-1.0 / SQRT3, 2.0 / SQRT3]])
_NEAR_I, _NEAR_J = np.mgrid[-1:2, -1:2].reshape(2, -1)

#: Barycentric coordinates of the 18 unit triangles of the 3x3 cells
#: around a cell, both kinds, as affine functions of the lattice
#: coordinates (u, v) measured from that cell: ``[u, v, 1] @ _BARY``
#: gives them in (cell, kind, vertex) order.  Each block inverts the
#: triangle's vertex rows ``[i, j, 1]``; they are unimodular, so the
#: entries are integers and the linear ones lie in {-1, 0, 1}.
_BARY = np.rint(np.linalg.inv(np.concatenate([
    np.stack([_NEAR_I, _NEAR_J], axis=-1)[:, None, None] + UNIT_TRIANGLES,
    np.ones((9, 2, 3, 1)),
], axis=-1))).transpose(2, 0, 1, 3).reshape(3, -1)


def monomial_basis(local: np.ndarray) -> np.ndarray:
    """Cubic monomials and their X and Y derivatives at local points
    ``(..., 2)``, as ``(..., 3, 10)`` in :data:`MONOMIAL_POWERS` order."""
    X = local[..., None, None, 0]
    Y = local[..., None, None, 1]
    return _FACTOR * X ** _XPOW * Y ** _YPOW


def _frame_local(ab) -> np.ndarray:
    """Scaled local coordinates of patch lattice points ``(a, b)``, per frame."""
    return position(np.einsum("...a,fad->f...d", ab - 4.0 / 3.0, _FRAMES), 0.25)


#: Design matrices at all 15 sites, one per frame: (2, 15, 10).
_FRAME_DESIGN = monomial_basis(_frame_local(_SITE_AB))[..., 0, :]
#: Their pseudo-inverses, ``_U[f] @ _VT[f]``, as the left singular
#: vectors over the singular values (2, 15, 10) and the right singular
#: vectors (2, 10, 10), and their smallest singular values (2,).
_U, _SV, _VT = np.linalg.svd(_FRAME_DESIGN, full_matrices=False)
_U /= _SV[:, None]
FRAME_SIGMA_MIN = _SV[:, -1]

#: Scaled local coordinates (2, 16 nq, 2) of the points of the degree-6
#: rule on the 16 subtriangles of a patch, per frame, and their
#: :func:`monomial_basis` (2, 16 nq, 3, 10), read-only.
_PATCH_LOCAL = np.einsum("qk,ftkx->ftqx", rule(6).points,
                         _frame_local(_SUB_AB)).reshape(len(_FRAMES), -1, 2)
_PATCH_BASIS = monomial_basis(_PATCH_LOCAL)
_PATCH_LOCAL.setflags(write=False)
_PATCH_BASIS.setflags(write=False)


@dataclass
class PatchGrid:
    """The lift patches of one mesh, as arrays over the patch index.

    The fits read ``site_nodes``, the error pass the sites of each
    subtriangle through :data:`SUB_SITES`, and point location the coarse
    ``cell_patches``; so the grid keeps no index of its subtriangles in
    the mesh.  Every site is a node, which the tests check at every lift
    level.
    """

    mesh: HoneycombMesh
    edge: float                  # L = 4 s
    corners_ij: np.ndarray       # (P, 3, 2) lattice coordinates
    frame: np.ndarray            # (P,) row of _FRAMES, the coarse kind
    site_nodes: np.ndarray       # (P, 15)
    centroid: np.ndarray         # (P, 2)
    cell_patches: np.ndarray     # the coarse tri_table, -1 outside

    @property
    def n_patches(self) -> int:
        return self.frame.size

    @cached_property
    def patches(self) -> list[Patch]:
        return [Patch(self, p) for p in range(self.n_patches)]


# Per-patch views of the arrays, kept only for ``perfbench/worker.py``:
# it reads ``corners_ij`` from ``grid.patches``, and the rank, sigma_min,
# residual, values and gradients from ``result.fits``.  The library and
# its tests use the arrays and the frame constants.
@dataclass(frozen=True, eq=False)
class Patch:
    """Patch ``index`` of a grid."""

    grid: PatchGrid = field(repr=False)
    index: int

    corners_ij = property(lambda p: p.grid.corners_ij[p.index])  # (3, 2)


@dataclass(frozen=True, eq=False)
class CubicFit:
    """Fit ``index`` of a lift, evaluated by :func:`evaluate_patches`."""

    result: LiftResult = field(repr=False)
    index: int

    rank = 10  # every frame's design has full rank
    sigma_min = property(
        lambda f: float(FRAME_SIGMA_MIN[f.result.grid.frame[f.index]]))
    residual = property(lambda f: float(f.result.residual[f.index]))

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        return evaluate_patches(self.result, np.full(len(xy), self.index), xy)[0]

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return evaluate_patches(self.result, np.full(len(xy), self.index), xy)[1]


def build_patch_grid(mesh: HoneycombMesh) -> PatchGrid:
    """Build the lift patch grid of a mesh of level >= 3.

    Patch p is subtriangle p of ``build_mesh(mesh.level - 2)``, whose
    spacing is L, with its corners in the same order; the patch order
    fixes the tie-breaking order used by point location.  A level below
    :data:`MIN_LIFT_LEVEL` raises ``ValueError`` from
    :func:`~hivevem.lattice.check_level`.
    """
    check_level(mesh.level, MIN_LIFT_LEVEL)
    coarse = build_mesh(mesh.level - 2)
    corners = 4 * coarse.node_ij[coarse.tris]
    # Corner 1 lies a step (4, 0) from corner 0 on kind 0, (4, -4) on kind 1.
    frame = (corners[:, 0, 1] - corners[:, 1, 1]) // 4

    sites = corners[:, :1] + np.einsum("sa,fad->fsd", _SITE_AB, _FRAMES)[frame]
    site_nodes = mesh.index(sites[..., 0], sites[..., 1])
    return PatchGrid(
        mesh, 4.0 * mesh.s, corners, frame, site_nodes,
        np.take(mesh.node_xy, site_nodes[:, _CORNER_SITES], axis=0).mean(axis=1),
        coarse.tri_table,
    )


@dataclass
class LiftResult:
    """Cubic fits of one lifted solution, as arrays over the patch index:
    ``coeffs`` (P, 10) in each patch's scaled local frame, and the
    residual norm of each fit (P,).  The rank, 10, and the smallest
    singular value, :data:`FRAME_SIGMA_MIN`, are those of the patch's
    frame."""

    grid: PatchGrid
    coeffs: np.ndarray
    residual: np.ndarray

    @cached_property
    def fits(self) -> list[CubicFit]:
        return [CubicFit(self, p) for p in range(self.grid.n_patches)]


def _node_data(u_h: FieldP1, problem) -> np.ndarray:
    """Fit data at every node: the solution, with interior centres
    corrected by ``(s**2/4) f``."""
    values = u_h.values.copy()
    centers = u_h.mesh.centers
    xy = np.take(u_h.mesh.node_xy, centers, axis=0)
    values[centers] += 0.25 * u_h.mesh.s ** 2 * sample(problem.f, xy)
    return values


def lift_solution(u_h: FieldP1, problem: ManufacturedProblem,
                  grid: PatchGrid) -> LiftResult:
    """Fit the cubic lift on every patch of the grid: the site data of
    the patches of each frame, in ascending order, times the frame's
    pseudo-inverse."""
    if u_h.mesh is not grid.mesh:
        raise ValueError("solution and patch grid live on different meshes")
    data = _node_data(u_h, problem)[grid.site_nodes]
    coeffs, residual = np.empty((grid.n_patches, 10)), np.empty(grid.n_patches)
    for f, design in enumerate(_FRAME_DESIGN):
        ids = np.flatnonzero(grid.frame == f)
        d = data[ids]
        c = coeffs[ids] = d @ _U[f] @ _VT[f]
        residual[ids] = np.linalg.norm(c @ design.T - d, axis=1)
    return LiftResult(grid, coeffs, residual)


def _points(point):
    """``point`` as a float array of shape ``(2,)`` or ``(k, 2)``, and
    its rows ``(k, 2)``; another shape raises ``ValueError``."""
    xy = np.asarray(point, dtype=float)
    if xy.ndim not in (1, 2) or xy.shape[-1] != 2:
        raise ValueError(f"points must have shape (2,) or (k, 2), got {xy.shape}")
    return xy, xy.reshape(-1, 2)


def locate_patch(grid: PatchGrid, point):
    """Index of the patch containing a point; lowest index on ties.

    Takes one point ``(2,)``, giving an ``int``, or a ``(k, 2)`` array,
    giving an index array; another shape, or a point outside the domain
    or not finite, raises ``ValueError``.  A point is in a patch when
    none of its barycentric coordinates is below ``-1e-12``.  Location
    works in the frame of the coarse lattice, whose unit triangles are
    the patches: the point's lattice coordinates ``uv`` fix its cell,
    only the 18 patches of the 3x3 cells around it can hold it, and
    their barycentric coordinates are affine in ``uv``, with the
    level-independent coefficients of :data:`_BARY` shifted by the cell.
    """
    xy, pts = _points(point)
    if not np.isfinite(pts).all():
        raise ValueError("cannot locate a non-finite point")
    # Clip the cell, not uv: a point on the domain's edge keeps its own
    # coordinates, measured from the last cell.
    m = grid.cell_patches.shape[0] // 2 - 1
    uv = pts @ _TO_LATTICE / grid.edge
    cell = np.minimum(np.maximum(np.floor(uv), -m), m - 1)
    ij = cell.astype(int) + m + 1
    cand = grid.cell_patches[ij[:, :1] + _NEAR_I, ij[:, 1:] + _NEAR_J]
    cand = cand.reshape(len(pts), 18)  # also when there are no points
    # (uv - cell) @ _BARY[:2] + _BARY[2], with the cell folded into the
    # integer constants: each coordinate is then a rounded sum of two
    # exact terms plus an integer, the same bits in any cell or batch.
    bary = uv @ _BARY[:2] + (_BARY[2] - cell @ _BARY[:2])
    inside = (bary.reshape(cand.shape + (3,)) >= -1e-12).all(axis=-1)
    owner = np.where(inside & (cand >= 0), cand, grid.n_patches).min(axis=1)
    if (owner == grid.n_patches).any():
        bad = pts[np.argmax(owner == grid.n_patches)]
        raise ValueError(f"point {tuple(bad)} lies outside the domain")
    return int(owner[0]) if xy.ndim == 1 else owner


def evaluate_patches(result: LiftResult, patches, xy: np.ndarray):
    """Values (k,) and gradients (k, 2) at points ``xy`` (k, 2), each
    from the cubic of the matching entry of ``patches``."""
    grid = result.grid
    basis = monomial_basis((xy - grid.centroid[patches]) / grid.edge)
    jet = (basis * result.coeffs[patches, None]).sum(axis=-1)
    return jet[:, 0], jet[:, 1:] / grid.edge


def evaluate_lift(result: LiftResult, point):
    """Lift value and gradient at one point ``(2,)``, ``(value, (gx, gy))``,
    or at each row of a ``(k, 2)`` array, ``(values, gradients)``.  A
    single point's gradient is an array of its own, not a view that
    would keep the ``(1, 2)`` result alive while the caller holds it."""
    xy, pts = _points(point)
    values, grads = evaluate_patches(result, locate_patch(result.grid, pts), pts)
    if xy.ndim == 1:
        return float(values[0]), grads[0].copy()
    return values, grads


def patch_quadrature(grid: PatchGrid):
    """Points of the degree-6 rule on the 16 subtriangles of every patch.

    Yields ``(ids, xy, basis)`` for blocks of patches of one frame that
    carry at most :data:`~hivevem.quadrature.BLOCK_POINTS` points
    together: the coordinates ``xy`` (2, n, 16 nq) of their points,
    subtriangle major, and the :func:`monomial_basis` (16 nq, 3, 10) at
    the scaled local coordinates they share: the frame's read-only table,
    built at import and the same for every grid.  On subtriangle ``t``
    the rule's barycentric coordinates refer to the sites
    ``SUB_SITES[t]``, in order.  The blocks bound the memory of problem
    evaluations at fine levels.
    """
    for f, frame_local in enumerate(_PATCH_LOCAL):
        offsets = np.ascontiguousarray(grid.edge * frame_local.T[:, None])
        members = np.flatnonzero(grid.frame == f)
        for ids in blocks(members, frame_local.shape[0]):
            yield ids, grid.centroid[ids].T[..., None] + offsets, _PATCH_BASIS[f]
