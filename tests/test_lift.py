"""Patch grid and cubic fits.

The patch tiling is checked as a partition of the subtriangles, the
fifteen sites are recomputed here as the principal lattice of each
patch triangle, and cubic reproduction is verified through the whole
pipeline, including the centre-value correction.  The reference data
schemes of ``schemes.py`` are checked here too, since the acceptance
gates read them.
"""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivevem.lattice import HEX_DIRECTIONS, MAX_LEVEL, build_mesh, node_class, position
from hivevem.lift import (
    _FRAME_DESIGN,
    _SITE_AB,
    FRAME_SIGMA_MIN,
    MIN_LIFT_LEVEL,
    MONOMIAL_POWERS,
    SUB_SITES,
    _frame_local,
    _node_data,
    build_patch_grid,
    evaluate_lift,
    lift_solution,
    locate_patch,
    monomial_basis,
    patch_quadrature,
)
from hivevem.problem import _from_expression, get_problem, zero
from hivevem.quadrature import rule, sample
from hivevem.system import FieldP1, MeshMismatchError, interpolate
from schemes import SCHEMES, node_data, patch_fit, scheme_lift, scheme_sites
from triangles import patch_subtriangles


@functools.lru_cache(maxsize=None)
def grid_at(level):
    return build_patch_grid(build_mesh(level))


def cubic_problem():
    return _from_expression(
        "cubic",
        lambda X, Y: 0.2 - X + 0.4 * Y + 0.7 * X * Y - 0.3 * X * X + 0.6 * Y * Y
        + 0.11 * X ** 3 + 0.23 * X * X * Y - 0.31 * X * Y * Y + 0.07 * Y ** 3,
    )


def fitted(u_h, problem, grid, scheme):
    """The lift under ``scheme``: the program's for its own scheme, the
    per-patch reference for the others."""
    if scheme == "lattice15-corrected":
        return lift_solution(u_h, problem, grid)
    return scheme_lift(u_h, problem, grid, scheme)[0]


@pytest.fixture(scope="module")
def grid3(mesh_cache):
    return build_patch_grid(mesh_cache(3))


@pytest.fixture(scope="module")
def grid4(mesh_cache):
    return build_patch_grid(mesh_cache(4))


# ------------------------------------------------------------------ grid


def test_minimum_level(mesh_cache):
    assert MIN_LIFT_LEVEL == 3
    for level in (1, 2):
        with pytest.raises(ValueError, match=r"level must be in \[3, "):
            build_patch_grid(mesh_cache(level))


@pytest.mark.parametrize("level, n_patches", [(3, 6), (4, 24), (5, 96)])
def test_patch_counts(level, n_patches, mesh_cache):
    grid = build_patch_grid(mesh_cache(level))
    assert grid.n_patches == n_patches
    assert grid.edge == pytest.approx(4 * grid.mesh.s)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_patches_partition_the_submesh(level):
    """The patches tile the submesh, 16 subtriangles each (the oracle
    asserts it), and those are the subtriangles that ``SUB_SITES``
    spells out from each patch's sites, which the error pass reads."""
    grid = grid_at(level)
    n = grid.mesh.n_nodes

    def keys(triples):
        """One integer per vertex set (P, 16, 3), sorted in each patch."""
        t = np.sort(triples, axis=-1).astype(np.int64)
        return np.sort((t[..., 0] * n + t[..., 1]) * n + t[..., 2], axis=-1)

    tiles = keys(grid.mesh.tris[patch_subtriangles(grid)])
    assert np.array_equal(tiles, keys(grid.site_nodes[:, SUB_SITES]))


def test_sites_are_the_principal_lattice(grid3):
    """The 15 sites of each patch are the degree-4 principal lattice
    points of its corner triangle, recomputed here from the corners."""
    mesh = grid3.mesh
    for p in range(grid3.n_patches):
        tri = position(grid3.corners_ij[p], mesh.s)
        want = sorted(
            tuple(np.round(tri[0] + (k * (tri[1] - tri[0]) + l * (tri[2] - tri[0])) / 4.0, 12))
            for k in range(5)
            for l in range(5 - k)
        )
        got = sorted(tuple(np.round(xy, 12)) for xy in mesh.node_xy[grid3.site_nodes[p]])
        assert got == want


@pytest.mark.parametrize("level", range(MIN_LIFT_LEVEL, MAX_LEVEL + 1))
def test_patch_grid_facts_at_every_lift_level(level):
    """Every site is a node, and its scaled local coordinates about the
    patch centroid are those of its frame's design, to round-off: so
    the two constant pseudo-inverses fit every patch.  Exactly one
    corner of each patch is class 0, the corner that the ``paper11``
    references add."""
    grid = build_patch_grid(build_mesh(level))
    assert np.all(grid.site_nodes >= 0)
    local = (grid.mesh.node_xy[grid.site_nodes] - grid.centroid[:, None]) / grid.edge
    assert np.allclose(local, _frame_local(_SITE_AB)[grid.frame], rtol=0, atol=1e-12)
    corners = grid.corners_ij
    class0 = node_class(corners[..., 0], corners[..., 1]) == 0
    assert np.all(class0.sum(axis=1) == 1)


@pytest.mark.parametrize("level", range(MIN_LIFT_LEVEL, MAX_LEVEL - 1))
def test_patch_frame_is_the_coarse_tri_kind(level):
    """A patch's frame is the kind of its coarse triangle, read from the
    coarse mesh and not derived again from the corners."""
    grid = grid_at(level)
    kind = build_mesh(level - 2).tri_kind
    assert grid.frame.dtype == kind.dtype and np.array_equal(grid.frame, kind)


def test_frame_designs_have_full_rank():
    """Each frame's design matrix determines a cubic at the 15 sites,
    and its smallest singular value is the frame constant."""
    for design, sigma_min in zip(_FRAME_DESIGN, FRAME_SIGMA_MIN):
        assert np.linalg.matrix_rank(design) == 10
        assert sigma_min == pytest.approx(np.linalg.svd(design)[1][-1], rel=1e-14)


@pytest.mark.parametrize(
    "level, census",
    [
        (3, {(11, 4): 6}),
        (4, {(10, 5): 6, (12, 3): 12, (11, 4): 6}),
    ],
)
def test_site_census_by_patch(level, census, mesh_cache):
    """How many of the 15 sites are mesh vertices vs interior centres
    depends on where the patch sits relative to the honeycomb."""
    grid = build_patch_grid(mesh_cache(level))
    is_center = grid.mesh.is_center[grid.site_nodes]
    c, count = np.unique(is_center.sum(axis=1), return_counts=True)
    assert {(15 - int(k), int(k)): int(n) for k, n in zip(c, count)} == census


# ------------------------------------------------------------------ fits


def test_monomial_basis():
    assert len(MONOMIAL_POWERS) == 10
    assert len(set(MONOMIAL_POWERS)) == 10
    assert all(p + q <= 3 for p, q in MONOMIAL_POWERS)


def test_patch_quadrature_computes_the_basis_once_per_rule():
    """Calls on any grid share one read-only basis per frame: the
    monomials at each block's scaled local points of the degree-6 rule."""
    grids = [build_patch_grid(build_mesh(level)) for level in (4, 5)]
    shared = [
        {basis.ctypes.data for _, _, basis in patch_quadrature(grid)}
        for grid in grids
    ]
    assert shared[0] == shared[1] and len(shared[0]) == 2
    grid = grids[1]
    for ids, xy, basis in patch_quadrature(grid):
        assert xy.shape[-1] == 16 * rule(6).n_points
        local = (xy - grid.centroid[ids].T[..., None]) / grid.edge
        assert not basis.flags.writeable
        assert np.allclose(
            monomial_basis(np.moveaxis(local, 0, -1)), basis, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fit_reproduces_cubic_site_data(grid3, scheme, patch_cubic):
    """Exact cubic data at the scheme's sites is fitted exactly: the
    residual vanishes and every fit matches the cubic pointwise.
    Every node carries the exact value and ``f`` is zero, so the data
    is exact under every scheme."""
    q = dataclasses.replace(cubic_problem(), f=lambda x, y: 0.0 * x)
    exact = FieldP1(grid3.mesh, sample(q.u, grid3.mesh.node_xy))
    lifted = fitted(exact, q, grid3, scheme)
    assert np.all(lifted.residual <= 1e-12)
    rng = np.random.default_rng(5)
    for p in range(grid3.n_patches):
        pts = grid3.centroid[p] + 0.1 * rng.normal(size=(20, 2))
        want = q.u(pts[:, 0], pts[:, 1])
        assert np.allclose(patch_cubic(lifted, p, pts)[0], want, atol=1e-11)


def test_lattice15_fits_are_well_conditioned(mesh_cache):
    """Scaled-frame sigma_min is level-independent and comfortably
    above the 0.01 floor: each patch's own design has its frame's."""
    for level in (3, 4, 5):
        grid = build_patch_grid(mesh_cache(level))
        _, rank, sigma_min = scheme_lift(interpolate(zero(), grid.mesh), zero(),
                                         grid, "lattice15-corrected")
        assert np.all(rank == 10)
        assert np.allclose(sigma_min, FRAME_SIGMA_MIN[grid.frame], rtol=1e-12, atol=0)
    assert np.all(FRAME_SIGMA_MIN > 0.01)
    assert np.allclose(FRAME_SIGMA_MIN, 0.0293, rtol=0, atol=0.02)


def test_paper11_rank_is_ten_on_level3(grid3):
    for p in range(grid3.n_patches):
        # eleven mesh vertices plus the centre-class corner
        assert scheme_sites(grid3, p, "paper11-plain").size == 12
    zero_field = interpolate(zero(), grid3.mesh)
    assert np.all(scheme_lift(zero_field, zero(), grid3, "paper11-plain")[1] == 10)


def test_deficient_fit_reports_its_rank(grid4):
    """Mesh vertices alone cannot determine a cubic on the interior
    patches of level 4, which carry ten of them: their design matrices
    have rank 9, below the lstsq cutoff."""
    vertices = ~grid4.mesh.is_center[grid4.site_nodes]
    interior = np.flatnonzero(vertices.sum(axis=1) == 10)
    assert interior.size == 6
    values = np.zeros(grid4.mesh.n_nodes)
    for p in interior:
        assert patch_fit(grid4, p, np.flatnonzero(vertices[p]), values)[1] == 9


@pytest.mark.parametrize("scheme", ["lattice15-corrected", "oracle-center"])
def test_batched_fits_match_per_patch_lstsq(scheme, solved_cache, hex_sine):
    """The two constant pseudo-inverses give each patch's lstsq fit to
    1e-12, and the same residual to round-off: for the program's data,
    and for exact centre values, which the program fits when the field
    carries them and ``f`` is zero."""
    mesh, u_h, _, _ = solved_cache(4)
    grid = build_patch_grid(mesh)
    values = node_data(u_h, hex_sine, scheme)
    if scheme == "oracle-center":
        lifted = lift_solution(FieldP1(mesh, values),
                               dataclasses.replace(hex_sine, f=zero().f), grid)
    else:
        lifted = lift_solution(u_h, hex_sine, grid)
    for p in range(grid.n_patches):
        coeffs, rank, _, residual = patch_fit(grid, p, np.arange(15), values)
        got = lifted.coeffs[p]
        assert np.linalg.norm(got - coeffs) <= 1e-12 * np.linalg.norm(coeffs)
        assert lifted.fits[p].rank == rank == 10
        assert lifted.residual[p] == pytest.approx(residual, rel=1e-10)


# ------------------------------------------------------- centre correction


def test_corrected_site_data_is_exact_on_cubics(grid3):
    """On centre sites the constrained interpolant carries the corner
    mean, biased by (s^2/4) Laplacian; adding (s^2/4) f cancels the
    bias exactly for cubics."""
    q = cubic_problem()
    u_i = interpolate(q, grid3.mesh)
    data = _node_data(u_i, q)[grid3.site_nodes]
    xy = grid3.mesh.node_xy[grid3.site_nodes]
    assert np.allclose(data, q.u(xy[..., 0], xy[..., 1]), atol=1e-13)


@pytest.mark.parametrize(
    "scheme", ["lattice15-corrected", "paper11-corrected", "oracle-center"]
)
def test_lift_reproduces_global_cubics(scheme, mesh_cache):
    q = cubic_problem()
    mesh = mesh_cache(4)
    grid = build_patch_grid(mesh)
    lifted = fitted(interpolate(q, mesh), q, grid, scheme)
    rng = np.random.default_rng(9)
    pts = 0.4 * rng.normal(size=(50, 2))
    pts = pts[np.abs(pts).max(axis=1) < 0.4]
    for x, y in pts:
        val, _ = evaluate_lift(lifted, (x, y))
        assert val == pytest.approx(float(q.u(x, y)), abs=1e-11)


def test_plain_centre_data_breaks_cubic_reproduction(mesh_cache):
    """Without the correction the centre sites carry the biased corner
    mean, so even a cubic is not reproduced; this is the measurable
    difference between the plain and corrected schemes."""
    q = cubic_problem()
    mesh = mesh_cache(4)
    grid = build_patch_grid(mesh)
    lifted = scheme_lift(interpolate(q, mesh), q, grid, "paper11-plain")[0]
    worst = 0.0
    for x, y in [(0.05, 0.02), (-0.3, 0.1), (0.2, -0.25)]:
        val, _ = evaluate_lift(lifted, (x, y))
        worst = max(worst, abs(val - float(q.u(x, y))))
    assert worst > 1e-6


@pytest.mark.parametrize(
    "scheme", ["lattice15-corrected", "paper11-corrected", "oracle-center"]
)
@settings(max_examples=15, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_batched_lift_reproduces_random_cubics(scheme, coeffs):
    """Every full-rank scheme with unbiased centre data reproduces any
    global cubic, values and gradients, at every node.  (paper11-plain
    is full rank too, but its plain centre data is biased; see below.)"""
    def expr(X, Y):
        terms = zip(coeffs, MONOMIAL_POWERS)
        return sum(c * X ** p * Y ** q for c, (p, q) in terms)

    q = _from_expression("random-cubic", expr)
    grid = grid_at(4)
    lifted = fitted(interpolate(q, grid.mesh), q, grid, scheme)
    xy = grid.mesh.node_xy
    values, grads = evaluate_lift(lifted, xy)
    _, gx, gy = q.grad_u(xy[:, 0], xy[:, 1])
    assert np.allclose(values, q.u(xy[:, 0], xy[:, 1]), rtol=0, atol=1e-12)
    assert np.allclose(grads, np.stack([gx, gy], axis=1), rtol=0, atol=1e-11)


# ------------------------------------------------------------- evaluation


def test_evaluate_matches_owning_fit(solved_cache, patch_cubic):
    mesh, u_h, _, _ = solved_cache(4)
    problem = get_problem("hex-sine")
    grid = build_patch_grid(mesh)
    lifted = lift_solution(u_h, problem, grid)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.integers(grid.n_patches)
        lam = rng.dirichlet(np.ones(3))
        xy = lam @ position(grid.corners_ij[p], mesh.s)
        val, grad = evaluate_lift(lifted, xy)
        want, want_grad = patch_cubic(lifted, locate_patch(grid, xy), xy)
        assert val == pytest.approx(want[0], rel=1e-13)
        assert np.allclose(grad, want_grad[0], rtol=1e-13, atol=0)


def test_seam_tie_break_prefers_lowest_index(grid3):
    """A point on a shared patch edge is assigned the smallest
    containing patch index."""
    mesh = grid3.mesh
    containing = []
    point = 0.5 * position(np.array([mesh.n, 0]), mesh.s)  # on a sextant seam
    for p in range(grid3.n_patches):
        tri = position(grid3.corners_ij[p], mesh.s)
        lam = np.linalg.solve(
            np.column_stack([tri[1] - tri[0], tri[2] - tri[0]]),
            point - tri[0],
        )
        lam = np.array([1 - lam.sum(), *lam])
        if np.all(lam >= -1e-12):
            containing.append(p)
    assert len(containing) >= 2
    assert locate_patch(grid3, point) == min(containing)


def test_locate_rejects_outside_points(grid3):
    with pytest.raises(ValueError):
        locate_patch(grid3, np.array([2.0, 0.0]))


#: (x, y) to lattice coordinates at unit spacing, as ``locate_patch`` takes them.
TO_LATTICE = np.array([[1.0, 0.0], [-1.0 / math.sqrt(3.0), 2.0 / math.sqrt(3.0)]])


def brute_force_owner(grid, point, tol=1e-12):
    """Lowest index of a patch containing the point, scanning them all.

    Barycentric coordinates in the coarse lattice frame, where patch p
    is the unit triangle ``corners_ij[p] / 4``: affine in the point's
    lattice coordinates, with the integer coefficients that invert the
    corner rows ``[i, j, 1]``.  That is the arithmetic of
    ``locate_patch``: its linear parts are sums of two exact terms, so
    any summation order rounds them alike.  Points within rounding of
    the tolerance edge are drawn, and another formula, such as
    Cramer's rule in x and y, can decide them the other way.
    """
    uv = point @ TO_LATTICE / grid.edge
    for p in range(grid.n_patches):
        rows = np.column_stack([grid.corners_ij[p] // 4, np.ones(3)])
        bary = np.rint(np.linalg.inv(rows))
        if np.min(uv @ bary[:2] + bary[2]) >= -tol:
            return p
    return -1


def xy_cramer_owner(grid, point, tol=1e-12):
    """Lowest index of a patch containing the point, scanning them all,
    with barycentric coordinates by Cramer's rule in x and y: the
    arithmetic of the benchmark's evaluation check."""
    for p in range(grid.n_patches):
        a, b, c = position(grid.corners_ij[p], grid.mesh.s)
        e1, e2, d = b - a, c - a, point - a
        det = e1[0] * e2[1] - e1[1] * e2[0]
        l1 = (d[0] * e2[1] - d[1] * e2[0]) / det
        l2 = (e1[0] * d[1] - e1[1] * d[0]) / det
        if min(l1, l2, 1.0 - l1 - l2) >= -tol:
            return p
    return -1


@st.composite
def patch_points(draw, grid):
    """A point of a random patch: interior, snapped to an edge, or
    snapped to a corner, so that seams and corners are hit."""
    p = draw(st.integers(0, grid.n_patches - 1))
    tri = position(grid.corners_ij[p], grid.mesh.s)
    kind = draw(st.sampled_from(["inside", "edge", "corner"]))
    k = draw(st.integers(0, 2))
    if kind == "corner":
        return tri[k]
    t = draw(st.floats(0.0, 1.0))
    if kind == "edge":
        return (1.0 - t) * tri[k] + t * tri[(k + 1) % 3]
    r = draw(st.floats(0.0, 1.0))
    return tri[0] + t * (1.0 - r) * (tri[1] - tri[0]) + t * r * (tri[2] - tri[0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), level=st.sampled_from([3, 4, 5, 6]))
def test_locate_matches_brute_force(data, level):
    grid = grid_at(level)
    point = data.draw(patch_points(grid))
    assert locate_patch(grid, point) == brute_force_owner(grid, point)


@st.composite
def clear_points(draw, grid):
    """A point at least 1e-9 inside a random patch, on one of its edges
    at least 1e-9 of its length from either end, or at a corner.  Every
    patch then holds the point or misses it by at least 1e-9 in
    barycentric terms, far beyond rounding in either arithmetic."""
    p = draw(st.integers(0, grid.n_patches - 1))
    tri = position(grid.corners_ij[p], grid.mesh.s)
    kind = draw(st.sampled_from(["inside", "edge", "corner"]))
    k = draw(st.integers(0, 2))
    if kind == "corner":
        return tri[k]
    if kind == "edge":
        t = draw(st.floats(1e-9, 1.0 - 1e-9))
        return (1.0 - t) * tri[k] + t * tri[(k + 1) % 3]
    t, r = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    lam = 1e-9 + (1.0 - 3e-9) * np.array([1.0 - t, t * (1.0 - r), t * r])
    return lam @ tri


@settings(max_examples=300, deadline=None)
@given(data=st.data(), level=st.sampled_from([3, 4, 5, 6]))
def test_locate_matches_xy_cramer_on_clear_points(data, level):
    """Away from the tolerance edge, location in the lattice frame
    agrees with Cramer's rule in x and y, with which the benchmark
    checks its evaluations."""
    grid = grid_at(level)
    point = data.draw(clear_points(grid))
    assert locate_patch(grid, point) == xy_cramer_owner(grid, point)


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7, 8])
def test_nodes_are_located_in_their_lowest_site_patch(level, mesh_cache):
    """A node lies in exactly the patches that carry it as a site, so
    its patch is the lowest of them, an exact integer table.  Boundary
    nodes are included, some on the far edge of the last cell."""
    mesh = mesh_cache(level)
    grid = build_patch_grid(mesh)
    owner = np.full(mesh.n_nodes, grid.n_patches)
    patches = np.broadcast_to(np.arange(grid.n_patches)[:, None], grid.site_nodes.shape)
    np.minimum.at(owner, grid.site_nodes, patches)
    assert np.array_equal(locate_patch(grid, mesh.node_xy), owner)


@settings(max_examples=100, deadline=None)
@given(
    level=st.sampled_from([3, 4, 5, 6]),
    side=st.integers(0, 5),
    t=st.floats(0.0, 1.0),
)
def test_locate_rejects_points_just_outside(level, side, t):
    """A boundary point pushed 1e-9 outward across its edge is outside."""
    grid = grid_at(level)
    corners = position(np.array(HEX_DIRECTIONS), 1.0)
    a, b = corners[side], corners[(side + 1) % 6]
    normal = (a + b) / np.linalg.norm(a + b)
    point = (1.0 - t) * a + t * b + 1e-9 * normal
    with pytest.raises(ValueError):
        locate_patch(grid, point)


@pytest.mark.parametrize(
    "point", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)]
)
def test_locate_rejects_non_finite_points(grid3, point):
    with pytest.raises(ValueError):
        locate_patch(grid3, np.array(point))
    with pytest.raises(ValueError):
        locate_patch(grid3, np.array([[0.1, 0.1], point]))


@pytest.mark.parametrize("shape", [(), (0,), (1,), (3,), (2, 3), (3, 1), (0, 3),
                                   (2, 2, 2), (1, 1, 2)])
def test_points_of_other_shapes_are_rejected(grid3, shape):
    """Only one point (2,) or rows (k, 2) are points: another shape,
    even with an even number of values, raises ``ValueError`` naming it."""
    lifted = lift_solution(interpolate(cubic_problem(), grid3.mesh),
                           cubic_problem(), grid3)
    points = np.full(shape, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        locate_patch(grid3, points)
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        evaluate_lift(lifted, points)


@pytest.mark.parametrize("point", [[0.1 + 0j, 0.0], np.array([[0.1, 0.0]]) + 0j])
def test_complex_points_are_rejected(grid3, point):
    """Location and evaluation refuse a complex point before converting
    it, rather than drop its imaginary part with a ``ComplexWarning``."""
    lifted = lift_solution(interpolate(cubic_problem(), grid3.mesh),
                           cubic_problem(), grid3)
    with pytest.raises(ValueError, match="must be real"):
        locate_patch(grid3, point)
    with pytest.raises(ValueError, match="must be real"):
        evaluate_lift(lifted, point)


@pytest.mark.parametrize("level", [3, 4])
def test_empty_batches_give_empty_results(level):
    """A (0, 2) batch locates to an empty index array and evaluates to
    empty values (0,) and gradients (0, 2)."""
    grid = grid_at(level)
    lifted = lift_solution(interpolate(cubic_problem(), grid.mesh),
                           cubic_problem(), grid)
    owners = locate_patch(grid, np.empty((0, 2)))
    assert owners.shape == (0,) and owners.dtype.kind == "i"
    values, grads = evaluate_lift(lifted, np.empty((0, 2)))
    assert values.shape == (0,) and grads.shape == (0, 2)
    assert values.dtype == grads.dtype == np.float64


@settings(max_examples=30, deadline=None)
@given(data=st.data(), level=st.sampled_from([3, 4, 5]))
def test_batched_evaluation_equals_single_points(data, level):
    grid = grid_at(level)
    lifted = lift_solution(interpolate(cubic_problem(), grid.mesh),
                           cubic_problem(), grid)
    pts = np.array(data.draw(st.lists(patch_points(grid), min_size=1, max_size=20)))
    values, grads = evaluate_lift(lifted, pts)
    assert np.array_equal(locate_patch(grid, pts),
                          [locate_patch(grid, p) for p in pts])
    for k, p in enumerate(pts):
        value, grad = evaluate_lift(lifted, p)
        assert isinstance(value, float) and grad.shape == (2,)
        assert grad.flags.owndata
        assert value == values[k]
        assert np.array_equal(grad, grads[k])


def test_gradient_matches_finite_differences(solved_cache):
    mesh, u_h, _, _ = solved_cache(4)
    problem = get_problem("hex-sine")
    lifted = lift_solution(u_h, problem, build_patch_grid(mesh))
    h = 1e-6
    for x, y in [(0.11, 0.07), (-0.23, 0.31), (0.4, -0.2)]:
        _, (gx, gy) = evaluate_lift(lifted, (x, y))
        vxp, _ = evaluate_lift(lifted, (x + h, y))
        vxm, _ = evaluate_lift(lifted, (x - h, y))
        vyp, _ = evaluate_lift(lifted, (x, y + h))
        vym, _ = evaluate_lift(lifted, (x, y - h))
        assert gx == pytest.approx((vxp - vxm) / (2 * h), rel=1e-6, abs=1e-6)
        assert gy == pytest.approx((vyp - vym) / (2 * h), rel=1e-6, abs=1e-6)


def test_lift_requires_matching_mesh(mesh_cache, hex_sine):
    """The lift raises the norms' error type for this fault, which is
    still a ``ValueError``, so the command line's exit code stays 2."""
    assert issubclass(MeshMismatchError, ValueError)
    grid = build_patch_grid(mesh_cache(3))
    other = interpolate(hex_sine, mesh_cache(4))
    with pytest.raises(MeshMismatchError):
        lift_solution(other, hex_sine, grid)


def test_lift_refuses_values_of_another_length(mesh_cache, hex_sine):
    """Three values too many are refused when the field is made, not
    fitted into a lift of the level's 24 patches."""
    mesh = mesh_cache(4)
    grid = grid_at(4)
    with pytest.raises(ValueError, match="real values of shape"):
        lift_solution(FieldP1(mesh, np.zeros(mesh.n_nodes + 3)), hex_sine, grid)
