"""Patch grid and cubic fits.

The patch tiling is checked as a partition of the subtriangles, the
fifteen sites are recomputed here as the principal lattice of each
patch triangle, and cubic reproduction is verified through the whole
pipeline, including the centre-value correction.
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivevem.lattice import HEX_DIRECTIONS, build_mesh, node_class, position
from hivevem.lift import (
    MIN_LIFT_LEVEL,
    MONOMIAL_POWERS,
    SCHEMES,
    LiftRankError,
    RankDeficientFitWarning,
    UnsupportedLevelError,
    _node_data,
    build_patch_grid,
    evaluate_lift,
    lift_solution,
    locate_patch,
    monomial_basis,
    patch_quadrature,
)
from hivevem.problem import _from_expression, get_problem, zero
from hivevem.system import interpolate, interpolate_pointwise


@functools.lru_cache(maxsize=None)
def grid_at(level):
    return build_patch_grid(build_mesh(level))


def cubic_problem():
    return _from_expression(
        "cubic",
        lambda X, Y: 0.2 - X + 0.4 * Y + 0.7 * X * Y - 0.3 * X * X + 0.6 * Y * Y
        + 0.11 * X ** 3 + 0.23 * X * X * Y - 0.31 * X * Y * Y + 0.07 * Y ** 3,
    )


def scheme_sites(grid, p, scheme):
    """Site ids (into the 15) that a scheme fits on patch ``p``, derived
    here from the mesh: all 15, or the mesh vertices plus, except under
    the min-norm scheme, the corner of centre class."""
    if scheme in ("lattice15-corrected", "oracle-center"):
        return np.arange(15)
    ij = grid.mesh.node_ij[grid.site_nodes[p]]
    corner = (ij[:, None] == grid.corners_ij[p]).all(axis=-1).any(axis=1)
    keep = ~grid.mesh.is_center[grid.site_nodes[p]]
    if scheme != "vertices-only-minnorm":
        keep |= corner & (node_class(ij[:, 0], ij[:, 1]) == 0)
    return np.flatnonzero(keep)


def zero_lift(grid, scheme):
    """Lift of the zero field: its ranks and smallest singular values
    are those of the design matrices, which do not depend on the data."""
    return lift_solution(interpolate(zero(), grid.mesh), zero(), grid, scheme)


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
        with pytest.raises(UnsupportedLevelError):
            build_patch_grid(mesh_cache(level))


@pytest.mark.parametrize("level, n_patches", [(3, 6), (4, 24), (5, 96)])
def test_patch_counts(level, n_patches, mesh_cache):
    grid = build_patch_grid(mesh_cache(level))
    assert grid.n_patches == n_patches
    assert grid.edge == pytest.approx(4 * grid.mesh.s)


def test_patches_partition_the_submesh(grid4):
    assert grid4.tri_indices.shape == (grid4.n_patches, 16)
    seen = np.sort(grid4.tri_indices.ravel())
    assert np.array_equal(seen, np.arange(grid4.mesh.n_tris))


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
    assert np.array_equal(grid3.site_is_center, mesh.is_center[grid3.site_nodes])


def test_each_patch_has_one_center_class_corner(grid4):
    mesh = grid4.mesh
    for p in range(grid4.n_patches):
        corner_xy = position(grid4.corners_ij[p], mesh.s)
        c0_node = grid4.site_nodes[p, grid4.c0_corner_site[p]]
        c0_xy = mesh.node_xy[c0_node]
        assert np.min(np.linalg.norm(corner_xy - c0_xy, axis=1)) <= 1e-12
        ij = mesh.node_ij[c0_node]
        assert node_class(ij[0], ij[1]) == 0
        # exactly one of the three corners has class 0
        classes = [int(node_class(i, j)) for i, j in grid4.corners_ij[p]]
        assert classes.count(0) == 1


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
    c, count = np.unique(grid.site_is_center.sum(axis=1), return_counts=True)
    assert {(15 - int(k), int(k)): int(n) for k, n in zip(c, count)} == census


# ------------------------------------------------------------------ fits


def test_monomial_basis():
    assert len(MONOMIAL_POWERS) == 10
    assert len(set(MONOMIAL_POWERS)) == 10
    assert all(p + q <= 3 for p, q in MONOMIAL_POWERS)


def test_patch_quadrature_computes_the_basis_once_per_rule():
    """Calls with one rule, on any grid, share one read-only basis per
    frame: the monomials at each block's scaled local points."""
    grids = [build_patch_grid(build_mesh(level)) for level in (4, 5)]
    shared = [
        {basis.ctypes.data for _, _, basis in patch_quadrature(grid, 6)}
        for grid in grids
    ]
    assert shared[0] == shared[1] and len(shared[0]) == 12
    grid = grids[1]
    for ids, xy, basis in patch_quadrature(grid, 6):
        local = (xy - grid.centroid[ids].T[..., None]) / grid.edge
        assert not basis.flags.writeable
        assert np.allclose(
            monomial_basis(np.moveaxis(local, 0, -1)), basis, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.filterwarnings("ignore::hivevem.lift.RankDeficientFitWarning")
def test_fit_reproduces_cubic_site_data(grid3, scheme, patch_cubic):
    """Exact cubic data at the scheme's sites is fitted exactly: the
    residual vanishes and full-rank fits match the cubic pointwise.
    Every node carries the exact value and ``f`` is zero, so the data
    is exact under every scheme."""
    q = dataclasses.replace(cubic_problem(), f=lambda x, y: 0.0 * x)
    lifted = lift_solution(interpolate_pointwise(q, grid3.mesh), q, grid3, scheme)
    assert np.all(lifted.residual <= 1e-12)
    rng = np.random.default_rng(5)
    for p in np.flatnonzero(lifted.rank == 10):
        pts = grid3.centroid[p] + 0.1 * rng.normal(size=(20, 2))
        want = q.u(pts[:, 0], pts[:, 1])
        assert np.allclose(patch_cubic(lifted, p, pts)[0], want, atol=1e-11)


def test_lift_rejects_unknown_scheme(grid3):
    with pytest.raises(ValueError):
        zero_lift(grid3, "not-a-scheme")


def test_lattice15_fits_are_well_conditioned(mesh_cache):
    """Scaled-frame sigma_min is level-independent and comfortably
    above the 0.01 floor."""
    for level in (3, 4, 5):
        fits = zero_lift(build_patch_grid(mesh_cache(level)), "lattice15-corrected")
        assert np.all(fits.rank == 10)
        assert np.all(fits.sigma_min > 0.01)
        assert np.allclose(fits.sigma_min, 0.0293, rtol=0, atol=0.02)


def test_paper11_rank_is_ten_on_level3(grid3):
    for p in range(grid3.n_patches):
        # eleven mesh vertices plus the centre-class corner
        assert scheme_sites(grid3, p, "paper11-plain").size == 12
    assert np.all(zero_lift(grid3, "paper11-plain").rank == 10)


def test_minnorm_warns_on_interior_patches(grid4):
    """Ten vertex values cannot determine ten cubic coefficients on
    interior patches; the min-norm scheme downgrades this to one
    warning for the whole lift."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = zero_lift(grid4, "vertices-only-minnorm")
    sizes = np.array([scheme_sites(grid4, p, "vertices-only-minnorm").size
                      for p in range(grid4.n_patches)])
    assert np.count_nonzero(sizes == 10) == 6
    assert np.array_equal(fits.rank, np.where(sizes == 10, 9, 10))
    assert len(caught) == 1
    assert issubclass(caught[0].category, RankDeficientFitWarning)


def test_rank_error_type():
    assert issubclass(LiftRankError, RuntimeError)


def reference_fit(u_h, problem, grid, p, scheme):
    """Patch ``p`` fitted the direct way: site data gathered by hand and
    ``np.linalg.lstsq`` on the patch's own design matrix, in the frame
    of its corners' mean and the edge 4 s."""
    mesh = u_h.mesh
    nodes = grid.site_nodes[p, scheme_sites(grid, p, scheme)]
    xy = mesh.node_xy[nodes]
    data = u_h.values[nodes].copy()
    center = mesh.is_center[nodes]
    if scheme == "oracle-center":
        data[center] = problem.u(xy[center, 0], xy[center, 1])
    elif scheme.endswith("-corrected"):
        data[center] += 0.25 * mesh.s ** 2 * problem.f(xy[center, 0], xy[center, 1])
    X = (xy - position(grid.corners_ij[p], mesh.s).mean(axis=0)) / (4.0 * mesh.s)
    A = np.stack([X[:, 0] ** p * X[:, 1] ** q for p, q in MONOMIAL_POWERS], 1)
    coeffs, _, rank, sv = np.linalg.lstsq(A, data, rcond=None)
    return coeffs, rank, sv, np.finfo(float).eps * max(A.shape) * sv[0]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_fits_match_per_patch_lstsq(scheme, solved_cache, hex_sine):
    """One pseudo-inverse per patch class gives each patch's lstsq fit:
    coefficients to 1e-12, the same rank, and the same smallest singular
    value (to 1e-12 where the fit has full rank; below the rank cutoff
    on both sides where it does not)."""
    mesh, u_h, _, _ = solved_cache(4)
    grid = build_patch_grid(mesh)
    if scheme == "vertices-only-minnorm":
        with pytest.warns(RankDeficientFitWarning):
            lifted = lift_solution(u_h, hex_sine, grid, scheme)
    else:
        lifted = lift_solution(u_h, hex_sine, grid, scheme)
    for p in range(grid.n_patches):
        coeffs, rank, sv, cutoff = reference_fit(u_h, hex_sine, grid, p, scheme)
        got = lifted.coeffs[p]
        assert np.linalg.norm(got - coeffs) <= 1e-12 * np.linalg.norm(coeffs)
        assert lifted.rank[p] == rank
        if rank == 10:
            assert lifted.sigma_min[p] == pytest.approx(sv[-1], rel=1e-12)
        else:
            assert lifted.sigma_min[p] <= cutoff and sv[-1] <= cutoff


# ------------------------------------------------------- centre correction


def test_corrected_site_data_is_exact_on_cubics(grid3):
    """On centre sites the constrained interpolant carries the corner
    mean, biased by (s^2/4) Laplacian; adding (s^2/4) f cancels the
    bias exactly for cubics."""
    q = cubic_problem()
    u_i = interpolate(q, grid3.mesh)
    data = _node_data(u_i, q, "lattice15-corrected")[grid3.site_nodes]
    xy = grid3.mesh.node_xy[grid3.site_nodes]
    assert np.allclose(data, q.u(xy[..., 0], xy[..., 1]), atol=1e-13)


@pytest.mark.parametrize(
    "scheme", ["lattice15-corrected", "paper11-corrected", "oracle-center"]
)
def test_lift_reproduces_global_cubics(scheme, mesh_cache):
    q = cubic_problem()
    mesh = mesh_cache(4)
    grid = build_patch_grid(mesh)
    u_i = interpolate(q, mesh)
    if scheme == "oracle-center":
        u_i = interpolate(q, mesh)  # centre values are replaced anyway
    lifted = lift_solution(u_i, q, grid, scheme)
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
    u_i = interpolate(q, mesh)
    lifted = lift_solution(u_i, q, grid, "paper11-plain")
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
    lifted = lift_solution(interpolate(q, grid.mesh), q, grid, scheme)
    xy = grid.mesh.node_xy
    values, grads = evaluate_lift(lifted, xy)
    gx, gy = q.grad_u(xy[:, 0], xy[:, 1])
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


def brute_force_owner(grid, point, tol=1e-12):
    """Lowest index of a patch containing the point, scanning them all.

    Barycentric coordinates by Cramer's rule, the arithmetic of
    ``locate_patch``: points within rounding of the tolerance edge are
    drawn, and another formula can decide them the other way.
    """
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
@given(data=st.data(), level=st.sampled_from([3, 4, 5]))
def test_locate_matches_brute_force(data, level):
    grid = grid_at(level)
    point = data.draw(patch_points(grid))
    assert locate_patch(grid, point) == brute_force_owner(grid, point)


@settings(max_examples=100, deadline=None)
@given(
    level=st.sampled_from([3, 4, 5]),
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
    grid = build_patch_grid(mesh_cache(3))
    other = interpolate(hex_sine, mesh_cache(4))
    with pytest.raises(Exception):
        lift_solution(other, hex_sine, grid)
