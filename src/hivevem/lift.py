"""Patchwise cubic lift of the honeycomb solution.

From level 3 on, the domain is tiled by equilateral patches whose edge
is four hexagon edges ``L = 4s``: each of the six sextant triangles of
the hexagon is subdivided uniformly into ``4**(level-3)`` patches of
both orientations.  A patch contains 16 subtriangles and carries the 15
lattice sites of its degree-4 principal lattice; exactly one of its
three corners is of the hexagon-centre class.  The patches are the unit
triangles of the coarse lattice of spacing L, so the grid is built by
integer lattice arithmetic and a point is located in O(1) from its
coarse lattice cell.

On every patch a full bivariate cubic (10 coefficients) is fitted by
least squares to solution data at a scheme-dependent subset of the 15
sites.  Fits use a scaled local frame, origin at the patch centroid and
coordinates divided by L, so design matrices stay well conditioned
uniformly in the level.  In that frame the sites depend only on the
patch's frame, one of twelve ordered pairs of lattice steps along its
edges, so all patches with the same frame and site subset share one
design matrix and are fitted together with one pseudo-inverse.

Data schemes
------------
``lattice15-corrected`` (default)
    All 15 sites.  Mesh vertices carry nodal solution values; interior
    hexagon centres carry the centre value plus ``(s**2/4) * f``, which
    cancels the second-order gap between a centre value (the mean of
    the six corners) and the underlying smooth function.  The corrected
    data is fourth-order accurate, and the site set always determines a
    cubic uniquely.
``paper11-plain`` / ``paper11-corrected``
    The mesh vertices of the patch plus its centre-class corner, data
    plain or corrected; the smallest site set with a provable rank.
``vertices-only-minnorm``
    Mesh vertices only, minimum-norm solution; on patches with no
    boundary sites the design matrix is rank deficient and the fit is a
    diagnostic, not an approximation.
``oracle-center``
    All 15 sites with exact solution values at the centres; isolates
    the effect of the centre-data correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .lattice import HEX_DIRECTIONS, SQRT3, HoneycombMesh, node_class, position
from .problem import ManufacturedProblem
from .quadrature import blocks, rule, sample
from .system import FieldP1

SCHEMES = ("lattice15-corrected", "paper11-plain", "paper11-corrected",
           "vertices-only-minnorm", "oracle-center")

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

#: Lattice steps along the two edges from a patch's origin corner:
#: frame k < 6 is the aligned ("up") patch of sextant k, 6 + k the other.
_D = HEX_DIRECTIONS * 2
_FRAMES = np.array([(_D[k], _D[k + 1]) for k in range(6)]
                   + [(_D[k + 2], _D[k + 1]) for k in range(6)])

#: Maps (x, y) to lattice coordinates (i, j) at unit spacing, and the
#: coarse cells searched around the cell of a point.
_TO_LATTICE = np.array([[1.0, 0.0], [-1.0 / SQRT3, 2.0 / SQRT3]])
_NEAR_I, _NEAR_J = np.mgrid[-1:2, -1:2].reshape(2, -1)


class UnsupportedLevelError(ValueError):
    """Patch grids only exist from level 3 on."""


class LiftRankError(RuntimeError):
    """A scheme that requires a determined fit met a deficient matrix."""


class RankDeficientFitWarning(UserWarning):
    """Diagnostic warning for minimum-norm fits with deficient rank."""


def monomial_basis(local: np.ndarray) -> np.ndarray:
    """Cubic monomials and their X and Y derivatives at local points
    ``(..., 2)``, as ``(..., 3, 10)`` in :data:`MONOMIAL_POWERS` order."""
    X = local[..., None, None, 0]
    Y = local[..., None, None, 1]
    return _FACTOR * X ** _XPOW * Y ** _YPOW


def _frame_local(ab) -> np.ndarray:
    """Scaled local coordinates of patch lattice points ``(a, b)``, per frame."""
    return position(np.einsum("...a,fad->f...d", ab - 4.0 / 3.0, _FRAMES), 0.25)


#: Design matrices at all 15 sites, one per frame: (12, 15, 10).
_FRAME_DESIGN = monomial_basis(_frame_local(_SITE_AB))[..., 0, :]


def _unit_triangles(vertex_sum):
    """Cell and kind of lattice unit triangles from their vertex sums:
    ``(3i+1, 3j+1)`` for ``(i,j),(i+1,j),(i,j+1)`` (kind 0) and
    ``(3i+2, 3j+2)`` for ``(i,j+1),(i+1,j),(i+1,j+1)`` (kind 1)."""
    return vertex_sum[..., 0] // 3, vertex_sum[..., 1] // 3, vertex_sum[..., 0] % 3 - 1


@dataclass
class PatchGrid:
    """The lift patches of one mesh, as arrays over the patch index."""

    mesh: HoneycombMesh
    edge: float                  # L = 4 s
    corners_ij: np.ndarray       # (P, 3, 2) lattice coordinates
    frame: np.ndarray            # (P,) row of _FRAMES
    site_nodes: np.ndarray       # (P, 15)
    site_is_center: np.ndarray   # (P, 15) interior-centre flags
    tri_indices: np.ndarray      # (P, 16)
    c0_corner_site: np.ndarray   # (P,) site id of the centre-class corner
    centroid: np.ndarray         # (P, 2)
    cell_patches: np.ndarray     # patches by coarse cell and kind, else P
    corner_xy: np.ndarray        # (P + 1, 3, 2), a NaN triangle last

    @property
    def n_patches(self) -> int:
        return self.frame.size

    @cached_property
    def patches(self) -> list[Patch]:
        return [Patch(self, p) for p in range(self.n_patches)]


# Per-patch views of the arrays, kept only for ``perfbench/worker.py``:
# it reads ``corners_ij`` from ``grid.patches``, and the rank, sigma_min,
# residual, values and gradients from ``result.fits``.  The library and
# its tests use the arrays.
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

    rank = property(lambda f: int(f.result.rank[f.index]))
    sigma_min = property(lambda f: float(f.result.sigma_min[f.index]))
    residual = property(lambda f: float(f.result.residual[f.index]))

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        return evaluate_patches(self.result, np.full(len(xy), self.index), xy)[0]

    def gradient(self, xy: np.ndarray) -> np.ndarray:
        return evaluate_patches(self.result, np.full(len(xy), self.index), xy)[1]


def build_patch_grid(mesh: HoneycombMesh) -> PatchGrid:
    """Build the lift patch grid of a mesh of level >= 3.

    Patches are emitted sextant by sextant, aligned ("up") rows first,
    which fixes the tie-breaking order used by point location.
    """
    if mesh.level < MIN_LIFT_LEVEL:
        raise UnsupportedLevelError(
            f"patch grid needs level >= {MIN_LIFT_LEVEL}, got {mesh.level}"
        )
    n = mesh.n
    m = 2 ** (mesh.level - MIN_LIFT_LEVEL)  # patches per sextant edge
    # Sextant k, with steps e1, e2 of frame k, has aligned patches at
    # origins 4(a e1 + b e2) and the others at 4((a + 1) e1 + b e2).
    a, c = np.triu_indices(m)
    ra, rc = np.triu_indices(m - 1)
    ab = np.stack([np.r_[a, ra + 1], np.r_[c - a, rc - ra]], axis=1)
    frame = (np.arange(6)[:, None] + 6 * (np.arange(m * m) >= a.size)).ravel()
    origin = 4 * np.einsum("pa,kad->kpd", ab, _FRAMES[:6]).reshape(-1, 2)
    n_patches = frame.size

    def lattice(local_ab, scale=1):
        return scale * origin[:, None] + np.einsum(
            "sa,pad->psd", local_ab, _FRAMES[frame])

    corners = lattice(np.array([(0, 0), (4, 0), (0, 4)]))
    sites = lattice(_SITE_AB)
    if np.abs(np.concatenate([sites, sites.sum(-1, keepdims=True)], -1)).max() > n:
        raise RuntimeError("patch site outside the domain")
    site_nodes = mesh._lookup[sites[..., 0] + n, sites[..., 1] + n]

    tri_table = np.full((2 * n, 2 * n, 2), -1)
    ti, tj, kind = _unit_triangles(mesh.node_ij[mesh.tris].sum(axis=1))
    tri_table[ti + n, tj + n, kind] = np.arange(mesh.n_tris)
    ti, tj, kind = _unit_triangles(lattice(_SUB_AB.sum(axis=1), scale=3))
    tri_indices = tri_table[ti + n, tj + n, kind]
    covered = np.bincount(tri_indices.ravel(), minlength=mesh.n_tris)
    if np.any(covered > 1):
        raise RuntimeError("patch tiling overlap")
    if np.any(covered == 0):
        raise RuntimeError("patch tiling does not cover the submesh")

    corner_sites = sites[:, _CORNER_SITES]
    cls0 = node_class(corner_sites[..., 0], corner_sites[..., 1]) == 0
    if np.any(cls0.sum(axis=1) != 1):
        raise RuntimeError("patch without unique centre-class corner")

    # Patches by coarse cell, with a border of cells that hold index P,
    # the NaN triangle of ``corner_xy`` that contains no point.
    cell_patches = np.full((2 * m + 2, 2 * m + 2, 2), n_patches)
    ci, cj, kind = _unit_triangles((corners // 4).sum(axis=1))
    cell_patches[ci + m + 1, cj + m + 1, kind] = np.arange(n_patches)
    return PatchGrid(
        mesh, 4.0 * mesh.s, corners, frame, site_nodes,
        mesh.is_center[site_nodes], tri_indices,
        _CORNER_SITES[np.argmax(cls0, axis=1)],
        mesh.node_xy[site_nodes[:, _CORNER_SITES]].mean(axis=1), cell_patches,
        np.concatenate([position(corners, mesh.s), np.full((1, 3, 2), np.nan)]),
    )


def _site_mask(site_is_center, c0_corner_site, scheme: str) -> np.ndarray:
    """Sites used by a data scheme, as a ``(P, 15)`` mask."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown lift scheme {scheme!r}; available: {SCHEMES}")
    if scheme in ("lattice15-corrected", "oracle-center"):
        return np.ones(site_is_center.shape, dtype=bool)
    mask = ~site_is_center
    if scheme != "vertices-only-minnorm":
        mask[np.arange(mask.shape[0]), c0_corner_site] = True
    return mask


def _fit(frames, masks, data, scheme: str):
    """Coefficients (n, 10), rank, smallest singular value and residual
    norm (n,) of fits to ``data`` (n, 15) at the masked sites, with one
    pseudo-inverse per class of equal frame and mask.  Rank cutoff and
    minimum-norm solution are those of ``lstsq``; deficient fits raise
    :class:`LiftRankError`, or warn under the min-norm scheme."""
    n = len(frames)
    coeffs, (sigma_min, residual) = np.empty((n, 10)), np.empty((2, n))
    rank = np.empty(n, dtype=np.int64)
    keys = frames << 15 | masks @ (1 << np.arange(15))
    classes, inverse = np.unique(keys, return_inverse=True)
    for c, key in enumerate(classes):
        ids = np.flatnonzero(inverse == c)
        sites = np.flatnonzero(masks[ids[0]])
        design = _FRAME_DESIGN[key >> 15, sites]
        u, sv, vt = np.linalg.svd(design, full_matrices=False)
        keep = sv > np.finfo(float).eps * max(design.shape) * sv[0]
        d = data[ids[:, None], sites]
        coeffs[ids] = d @ (u[:, keep] / sv[keep]) @ vt[keep]
        rank[ids], sigma_min[ids] = keep.sum(), sv[-1]
        residual[ids] = np.linalg.norm(coeffs[ids] @ design.T - d, axis=1)
    bad = np.flatnonzero(rank < 10)
    if bad.size:
        where = f"patch {bad[0]}: design matrix rank {rank[bad[0]]} < 10"
        if scheme != "vertices-only-minnorm":
            raise LiftRankError(f"{where} under scheme {scheme!r}")
        warnings.warn(f"{where}, minimum-norm fit ({bad.size} such patches)",
                      RankDeficientFitWarning, stacklevel=3)
    return coeffs, rank, sigma_min, residual


@dataclass
class LiftResult:
    """Cubic fits of one lifted solution, as arrays over the patch index:
    ``coeffs`` (P, 10) in each patch's scaled local frame, and the rank,
    smallest singular value and residual norm of each fit (P,)."""

    grid: PatchGrid
    scheme: str
    coeffs: np.ndarray
    rank: np.ndarray
    sigma_min: np.ndarray
    residual: np.ndarray

    @cached_property
    def fits(self) -> list[CubicFit]:
        return [CubicFit(self, p) for p in range(self.grid.n_patches)]


def _node_data(u_h: FieldP1, problem, scheme: str) -> np.ndarray:
    """Fit data at every node: the solution, with interior centres set to
    exact values (oracle) or corrected by ``(s**2/4) f``."""
    values = u_h.values.copy()
    centers = u_h.mesh.centers
    xy = u_h.mesh.node_xy[centers]
    if scheme == "oracle-center":
        values[centers] = sample(problem.u, xy)
    elif scheme.endswith("-corrected"):
        values[centers] += 0.25 * u_h.mesh.s ** 2 * sample(problem.f, xy)
    return values


def lift_solution(u_h: FieldP1, problem: ManufacturedProblem, grid: PatchGrid,
                  scheme: str = "lattice15-corrected") -> LiftResult:
    """Fit the cubic lift on every patch of the grid."""
    mask = _site_mask(grid.site_is_center, grid.c0_corner_site, scheme)
    if u_h.mesh is not grid.mesh:
        raise ValueError("solution and patch grid live on different meshes")
    values = _node_data(u_h, problem, scheme)[grid.site_nodes]
    return LiftResult(grid, scheme, *_fit(grid.frame, mask, values, scheme))


def locate_patch(grid: PatchGrid, point):
    """Index of the patch containing a point; lowest index on ties.

    Takes one point, giving an ``int``, or a ``(k, 2)`` array, giving an
    index array.  A point is in a patch when none of its barycentric
    coordinates is below ``-1e-12``; only the patches of the 3x3 coarse
    cells around the point's own cell can be.
    """
    xy = np.asarray(point, dtype=float)
    pts = xy.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("cannot locate a non-finite point")
    # Coarse cell, clipped to the domain's cells and shifted past the
    # border: positive, so truncation floors it.
    m = grid.cell_patches.shape[0] // 2 - 1
    cell = (np.clip(pts @ _TO_LATTICE / grid.edge, -m, m - 1) + m + 1).astype(int)
    cand = grid.cell_patches[cell[:, :1] + _NEAR_I, cell[:, 1:] + _NEAR_J]
    cand = cand.reshape(len(pts), -1)
    a, b, c = np.moveaxis(grid.corner_xy[cand], -2, 0)
    e1, e2, d = b - a, c - a, pts[:, None] - a
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    l1 = (d[..., 0] * e2[..., 1] - d[..., 1] * e2[..., 0]) / det
    l2 = (e1[..., 0] * d[..., 1] - e1[..., 1] * d[..., 0]) / det
    inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (1.0 - l1 - l2 >= -1e-12)
    owner = np.where(inside, cand, grid.n_patches).min(axis=1)
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
    """Lift value and gradient at one point, ``(value, (gx, gy))``, or
    at each row of a ``(k, 2)`` array, ``(values, gradients)``."""
    xy = np.asarray(point, dtype=float)
    pts = xy.reshape(-1, 2)
    values, grads = evaluate_patches(result, locate_patch(result.grid, pts), pts)
    if xy.ndim == 1:
        return float(values[0]), grads[0]
    return values, grads


@lru_cache(maxsize=None)
def _patch_rule(degree: int):
    """Scaled local coordinates (12, 16 nq, 2) of the points of the
    degree-``degree`` rule on the 16 subtriangles of a patch, per frame,
    and their :func:`monomial_basis` (12, 16 nq, 3, 10), read-only."""
    local = np.einsum("qk,ftkx->ftqx", rule(degree).points, _frame_local(_SUB_AB))
    local = local.reshape(len(_FRAMES), -1, 2)
    basis = monomial_basis(local)
    local.setflags(write=False)
    basis.setflags(write=False)
    return local, basis


def patch_quadrature(grid: PatchGrid, degree: int):
    """Quadrature points on the 16 subtriangles of every patch.

    Yields ``(ids, xy, basis)`` for blocks of patches of one frame that
    carry at most :data:`~hivevem.quadrature.BLOCK_POINTS` points of the
    degree-``degree`` rule together: the coordinates ``xy`` (2, n, 16 nq)
    of their points, subtriangle major, and the :func:`monomial_basis`
    (16 nq, 3, 10) at the scaled local coordinates they share, computed
    once per rule.  The blocks bound the memory of problem evaluations
    at fine levels.
    """
    local, basis = _patch_rule(degree)
    for f, frame_local in enumerate(local):
        offsets = grid.edge * frame_local.T[:, None]
        members = np.flatnonzero(grid.frame == f)
        for ids in blocks(members, frame_local.shape[0]):
            yield ids, grid.centroid[ids].T[..., None] + offsets, basis[f]
