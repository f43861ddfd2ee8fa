"""Error norms and convergence-order bookkeeping."""

import math

import numpy as np
import pytest

from hivevem.analysis import (
    ROUNDOFF,
    MeshMismatchError,
    StudyRow,
    norm_h1_broken_true,
    norm_l2_true,
    norms_superclose,
    observed_order,
    orders,
)
from hivevem import quadrature
from hivevem.lift import build_patch_grid, evaluate_patches, lift_solution
from hivevem.problem import _from_expression, get_problem
from hivevem.quadrature import rule
from hivevem.system import FieldP1, interpolate, tri_quadrature
from schemes import scheme_lift
from triangles import p1_gradients, patch_subtriangles


def cubic_problem():
    return _from_expression(
        "cubic",
        lambda X, Y: 0.4 * X + 0.2 * Y - 0.5 * X * Y + X * X
        - 0.12 * X ** 3 + 0.3 * X * Y * Y - 0.05 * Y ** 3,
    )


def pointwise(problem, mesh):
    """The exact solution sampled at every node, centres included."""
    return FieldP1(mesh=mesh, values=quadrature.sample(problem.u, mesh.node_xy))


def lift_l2_by_subtriangles(lifted, problem, degree=6):
    """The lift's L2 error summed subtriangle by subtriangle, each point
    evaluated in the cubic of the patch that tiles its subtriangle, as
    the centroid oracle finds it."""
    grid = lifted.grid
    mesh = grid.mesh
    q = rule(degree)
    owner = np.empty(mesh.n_tris, dtype=int)
    owner[patch_subtriangles(grid)] = np.arange(grid.n_patches)[:, None]
    pts = np.einsum("qk,tkx->tqx", q.points, mesh.node_xy[mesh.tris]).reshape(-1, 2)
    values, _ = evaluate_patches(lifted, np.repeat(owner, q.n_points), pts)
    err = (problem.u(pts[:, 0], pts[:, 1]) - values).reshape(-1, q.n_points)
    return math.sqrt(mesh.tri_area * float(np.sum(err ** 2 @ q.weights)))


def test_observed_order_arithmetic():
    assert observed_order(1.0, 2.0 ** -4) == pytest.approx(4.0)
    assert observed_order(8.0, 1.0) == pytest.approx(3.0)
    # frozen example: halving from 3.298e-3 to 2.324e-4
    assert observed_order(3.298e-3, 2.324e-4) == pytest.approx(3.827, abs=1e-3)


def test_observed_order_sentinels():
    assert observed_order(None, 1.0) == 0.0
    assert observed_order(1.0, None) == 0.0
    assert observed_order(1e-33, 1e-35) == 0.0  # both at round-off
    assert observed_order(1.0, 1e-33) == 0.0
    assert ROUNDOFF < 1e-12


def test_orders_fills_consecutive_rows():
    rows = [
        StudyRow(level=2, h=0.5, dofs=6, e_ih_l2=1.0, e_ih_h1=2.0,
                 e_ih_linf=4.0, e_l2=8.0),
        StudyRow(level=3, h=0.25, dofs=24, e_ih_l2=2.0 ** -4, e_ih_h1=0.5,
                 e_ih_linf=1.0, e_l2=2.0, e_lift_l2=1.0, e_lift_h1h=2.0),
        StudyRow(level=4, h=0.125, dofs=114, e_ih_l2=2.0 ** -8, e_ih_h1=0.125,
                 e_ih_linf=0.25, e_l2=0.5, e_lift_l2=2.0 ** -4,
                 e_lift_h1h=0.25),
    ]
    out = orders(rows)
    assert out is rows
    assert rows[0].r_ih_l2 == 0.0 and rows[0].r_l2 == 0.0
    assert rows[1].r_ih_l2 == pytest.approx(4.0)
    assert rows[1].r_ih_h1 == pytest.approx(2.0)
    assert rows[1].r_l2 == pytest.approx(2.0)
    # lift appears first on the middle row: no previous value, no order
    assert rows[1].r_lift_l2 in (None, 0.0)
    assert rows[2].r_lift_l2 == pytest.approx(4.0)
    assert rows[2].r_lift_h1h == pytest.approx(3.0)


def test_superclose_quadrature_is_already_exact(solved_cache):
    """The superclose integrand is piecewise quadratic, so the degree-2
    rule gives the degree-4 L2 norm to round-off."""
    mesh, u_h, _, _ = solved_cache(3)
    problem = get_problem("hex-sine")
    u_i = interpolate(problem, mesh)
    q = rule(4)
    vals = (u_i.values - u_h.values)[mesh.tris] @ q.points.T
    want = math.sqrt(mesh.tri_area * float(np.sum(vals ** 2 @ q.weights)))
    got = norms_superclose(u_h, u_i)
    assert got[0] == pytest.approx(want, rel=1e-13)
    assert all(v > 0 for v in got)


@pytest.mark.parametrize("level", range(2, 8))
def test_superclose_h1_matches_the_p1_gradients(level, solved_cache, hex_sine):
    """The H1 seminorm from squared edge differences is the sum of
    area * |grad|^2 of the P1 gradients, to round-off."""
    mesh, u_h, _, _ = solved_cache(level)
    u_i = interpolate(hex_sine, mesh)
    grads, area = p1_gradients(mesh.node_xy[mesh.tris])
    g = np.einsum("tk,tkx->tx", (u_i.values - u_h.values)[mesh.tris], grads)
    want = math.sqrt(np.sum(area * np.sum(g * g, axis=1)))
    assert norms_superclose(u_h, u_i)[1] == pytest.approx(want, rel=1e-14, abs=0)


def test_superclose_of_identical_fields_is_zero(mesh_cache, hex_sine):
    u_i = interpolate(hex_sine, mesh_cache(3))
    l2, h1, linf = norms_superclose(u_i, u_i)
    assert l2 == 0.0 and h1 == 0.0 and linf == 0.0


def test_mesh_mismatch_is_rejected(mesh_cache, hex_sine):
    a = interpolate(hex_sine, mesh_cache(2))
    b = interpolate(hex_sine, mesh_cache(3))
    with pytest.raises(MeshMismatchError):
        norms_superclose(a, b)


def test_l2_error_of_the_zero_field_is_the_solution_norm(mesh_cache, hex_sine):
    """Frozen reference: the L2 norm of the manufactured solution, which
    the degree-8 rule gives to 1e-11 as well."""
    mesh = mesh_cache(5)
    zero = FieldP1(mesh=mesh, values=np.zeros(mesh.n_nodes))
    got = norm_l2_true(zero, hex_sine)
    assert got == pytest.approx(8.686221036716e-2, rel=1e-10)
    q = rule(8)
    sq = sum(float(np.sum(hex_sine.u(*xy).reshape(-1, q.n_points) ** 2 @ q.weights))
             for _, xy in tri_quadrature(mesh, q))
    assert math.sqrt(mesh.tri_area * sq) == pytest.approx(got, rel=1e-11)


def test_lift_norms_vanish_for_reproduced_cubics(mesh_cache):
    q = cubic_problem()
    mesh = mesh_cache(4)
    grid = build_patch_grid(mesh)
    u_i = interpolate(q, mesh)
    lifted = lift_solution(u_i, q, grid)
    assert norm_l2_true(u_i, q, lift=lifted)[1] <= 1e-12
    assert norm_h1_broken_true(lifted, q) <= 1e-11


def test_norm_l2_true_rejects_unknown_types(solved_cache, hex_sine):
    with pytest.raises(TypeError):
        norm_l2_true(np.zeros(5), hex_sine)
    mesh, u_h, _, _ = solved_cache(3)
    lifted = lift_solution(u_h, hex_sine, build_patch_grid(mesh))
    with pytest.raises(TypeError):
        norm_l2_true(lifted, hex_sine)
    with pytest.raises(TypeError):
        norm_l2_true(lifted, hex_sine, lift=lifted)
    with pytest.raises(MeshMismatchError):
        norm_l2_true(solved_cache(4)[1], hex_sine, lift=lifted)


@pytest.mark.parametrize("scheme", ["lattice15-corrected", "oracle-center"])
@pytest.mark.parametrize("level", range(3, 7))
def test_single_pass_matches_the_separate_norms(level, scheme, solved_cache, hex_sine):
    """The keyword form gives the field's L2 error by the patch rule,
    which sums the subtriangle integrals in another order; the lift's
    L2 error as a sum over the subtriangles, each point evaluated in the
    patch that tiles its subtriangle; and the broken H1 error from the
    same kernel as the separate call.  The ``oracle-center`` lift is the
    per-patch reference of ``schemes.py``."""
    mesh, u_h, _, _ = solved_cache(level)
    grid = build_patch_grid(mesh)
    if scheme == "oracle-center":
        lifted = scheme_lift(u_h, hex_sine, grid, scheme)[0]
    else:
        lifted = lift_solution(u_h, hex_sine, grid)
    e_l2, e_lift_l2, e_lift_h1h = norm_l2_true(u_h, hex_sine, lift=lifted)
    assert e_l2 == pytest.approx(norm_l2_true(u_h, hex_sine), rel=1e-12)
    assert e_lift_l2 == pytest.approx(lift_l2_by_subtriangles(lifted, hex_sine),
                                      rel=1e-12)
    assert e_lift_h1h == norm_h1_broken_true(lifted, hex_sine)


def test_interpolation_error_is_second_order(mesh_cache, hex_sine):
    errs = [
        norm_l2_true(pointwise(hex_sine, mesh_cache(level)), hex_sine)
        for level in (3, 4, 5)
    ]
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.9 < r < 2.1 for r in rates)


@pytest.mark.parametrize("block_points", [100, 5000])
def test_blocked_error_norms_match_whole_mesh_sums(
    solved_cache, hex_sine, monkeypatch, block_points
):
    """Blocks change only the order in which the squared errors are
    summed: the true L2 error, alone or from the single pass with the
    lift, matches one whole-mesh sum, and the lift norms match the
    default blocks, to summation round-off."""
    mesh, u_h, _, _ = solved_cache(5)
    q = rule(6)
    pts = np.einsum("qk,tkx->tqx", q.points, mesh.node_xy[mesh.tris])
    err = hex_sine.u(pts[..., 0], pts[..., 1]) - u_h.values[mesh.tris] @ q.points.T
    want = math.sqrt(mesh.tri_area * np.einsum("tq,q->", err ** 2, q.weights))
    lifted = lift_solution(u_h, hex_sine, build_patch_grid(mesh))
    lift_norms = norm_l2_true(u_h, hex_sine, lift=lifted)[1:]
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", block_points)
    assert norm_l2_true(u_h, hex_sine) == pytest.approx(want, rel=1e-12)
    assert norm_h1_broken_true(lifted, hex_sine) == pytest.approx(
        lift_norms[1], rel=1e-12
    )
    single = norm_l2_true(u_h, hex_sine, lift=lifted)
    assert single == pytest.approx((want, *lift_norms), rel=1e-12)
