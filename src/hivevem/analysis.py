"""Error norms and convergence-order bookkeeping.

The superclose quantity is the difference between the space interpolant
of the exact solution and the discrete solution.  Both are piecewise
linear on the triangular submesh, so its L2 norm is integrated exactly
by a degree-2 rule, its H1 seminorm is a sum of squared edge
differences (the element stiffness of the equilateral subtriangles) and
its max norm is taken over the mesh vertices (the honeycomb degrees of
freedom; interior hexagon centres are slaved values, not vertices).

True errors against the exact solution use the degree-6 rule on the
subtriangles.  Lift errors are broken over patches: each patch cubic is
integrated over its own 16 subtriangles, and the H1 seminorm uses the
analytic cubic gradients.  The monomials are tabulated once for each of
the two patch frames, one per kind of patch triangle, and applied to
blocks of patches.

At a level with a lift, one pass over the patch rule gives all three
true errors: the patches tile the subtriangles, so the nodal field's L2
error is the same integral, and u and its gradient come from one jet
evaluation per block.  Levels without a lift run the subtriangle pass.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, make_dataclass

import numpy as np

from .lattice import SQRT3, HoneycombMesh
from .lift import SUB_SITES, LiftResult, patch_quadrature
from .problem import ManufacturedProblem
from .quadrature import rule
from .system import FieldP1, tri_quadrature

#: Errors at or below this scale count as round-off; no order is formed.
ROUNDOFF = 100.0 * np.finfo(float).eps


class MeshMismatchError(ValueError):
    """Fields compared across different meshes."""


def _nodal_l2(mesh: HoneycombMesh, nodal: np.ndarray) -> float:
    q = rule(2)
    vals = nodal[mesh.tris] @ q.points.T          # (T, nq)
    return math.sqrt(mesh.tri_area * float(np.einsum("tq,q->", vals ** 2, q.weights)))


def _nodal_h1(mesh: HoneycombMesh, nodal: np.ndarray) -> float:
    # On an equilateral triangle of any size, the integral of |grad v|^2
    # is the sum of the squared edge differences over 2 sqrt(3).
    v = nodal[mesh.tris]
    d = v[:, [1, 2, 0]] - v
    return math.sqrt(float(np.sum(d * d)) / (2.0 * SQRT3))


def norms_superclose(u_h: FieldP1, u_i: FieldP1) -> tuple[float, float, float]:
    """L2, H1-seminorm and vertex max norm of ``u_i - u_h``; the L2 norm
    takes the degree-2 rule, exact for the piecewise-quadratic integrand."""
    if u_h.mesh is not u_i.mesh:
        raise MeshMismatchError("superclose norms need fields on one mesh")
    mesh = u_h.mesh
    diff = u_i.values - u_h.values
    l2 = _nodal_l2(mesh, diff)
    h1 = _nodal_h1(mesh, diff)
    linf = float(np.max(np.abs(diff[mesh.nh_nodes])))
    return l2, h1, linf


def norm_l2_true(approx: FieldP1, problem: ManufacturedProblem, *, lift=None):
    """L2 norm of ``u - approx`` for a nodal field.

    With ``lift``, ``approx`` is a nodal field on the lift's mesh and the
    result is the tuple ``(e_l2, e_lift_l2, e_lift_h1h)``: the field's L2
    error and the lift's L2 and patch-broken H1 errors, from one pass
    over the patch rule that takes u and its gradient from one jet
    evaluation per block.  The field's error is then summed patch by
    patch, which moves it from the subtriangle pass by round-off only.
    """
    if not isinstance(approx, FieldP1):
        raise TypeError(f"cannot measure {type(approx).__name__}")
    if lift is None:
        return _field_l2_error(approx, problem)
    if approx.mesh is not lift.grid.mesh:
        raise MeshMismatchError("field and lift live on different meshes")
    return _patch_errors(lift, problem, approx)


def _field_l2_error(u_h: FieldP1, problem) -> float:
    mesh = u_h.mesh
    q = rule(6)
    total = 0.0
    for tris, xy in tri_quadrature(mesh, q):
        exact = np.asarray(problem.u(*xy)).reshape(-1, q.n_points)
        approx = u_h.values[tris] @ q.points.T
        total += float(np.einsum("tq,q->", (exact - approx) ** 2, q.weights))
    return math.sqrt(mesh.tri_area * total)


def _patch_errors(lift: LiftResult, problem, nodal=None):
    """``(e_field, e_lift_l2, e_lift_h1h)`` by the patch rule, u and its
    gradient from one ``grad_u`` call per block; ``e_field`` is the L2
    error of the nodal field ``nodal``, or ``None`` without one."""
    grid = lift.grid
    q = rule(6)
    weights = np.tile(q.weights, 16)
    field_sq = l2_sq = h1_sq = 0.0
    for ids, xy, basis in patch_quadrature(grid):
        u, ux, uy = problem.grad_u(*xy)
        if nodal is not None:
            p1 = nodal.values[grid.site_nodes[ids][:, SUB_SITES]] @ q.points.T
            field_sq += float(np.sum((u - p1.reshape(u.shape)) ** 2 @ weights))
        fitted = lift.coeffs[ids] @ basis[:, 0].T
        l2_sq += float(np.sum((u - fitted) ** 2 @ weights))
        coeffs = lift.coeffs[ids] / grid.edge
        sq = (ux - coeffs @ basis[:, 1].T) ** 2 + (uy - coeffs @ basis[:, 2].T) ** 2
        h1_sq += float(np.sum(sq @ weights))
    area = grid.mesh.tri_area
    return (None if nodal is None else math.sqrt(area * field_sq),
            math.sqrt(area * l2_sq), math.sqrt(area * h1_sq))


def norm_h1_broken_true(lift: LiftResult, problem: ManufacturedProblem) -> float:
    """Patch-broken H1 seminorm of ``u - lift`` via analytic gradients."""
    return _patch_errors(lift, problem)[2]


#: The study columns in CSV order: name, table header and table width.
#: Each error ``e_X`` is followed by its order ``r_X``; the lift columns
#: are the ones whose name holds ``lift``.
COLUMNS = (
    ("level", "lvl", 3), ("h", "h", 9), ("dofs", "dofs", 7),
    ("e_ih_l2", "|Iu-uh|_L2", 11), ("r_ih_l2", "r", 5),
    ("e_ih_h1", "|Iu-uh|_H1", 11), ("r_ih_h1", "r", 5),
    ("e_ih_linf", "|Iu-uh|_oo", 11), ("r_ih_linf", "r", 5),
    ("e_l2", "|u-uh|_L2", 11), ("r_l2", "r", 5),
    ("e_lift_l2", "|u-lift|_L2", 12), ("r_lift_l2", "r", 5),
    ("e_lift_h1h", "|u-lift|_H1h", 13), ("r_lift_h1h", "r", 5),
)


#: One refinement level of a convergence study, with the fields of
#: :data:`COLUMNS`, set by keyword.  Lift entries are ``None`` below the
#: first lift level or when the lift is disabled; order entries are the
#: 0.0 sentinel on first rows and whenever either error sits at round-off.
StudyRow = make_dataclass("StudyRow", [
    (name, object, field(default=None if "lift" in name
                         else 0.0 if name.startswith("r_") else MISSING))
    for name, _, _ in COLUMNS
], kw_only=True, namespace={"__module__": __name__})


def observed_order(e_prev, e_cur) -> float:
    """Dyadic convergence order with a 0.0 sentinel for undefined cases."""
    if e_prev is None or e_cur is None:
        return 0.0
    if e_prev <= ROUNDOFF or e_cur <= ROUNDOFF:
        return 0.0
    return math.log2(e_prev / e_cur)


def orders(rows: list[StudyRow]) -> list[StudyRow]:
    """Fill the order columns of consecutive study rows in place: each
    ``r_X`` is ``None`` where ``e_X`` is, 0.0 on the first row, and
    otherwise the order from the previous row's ``e_X``."""
    errors = [name for name, _, _ in COLUMNS if name.startswith("e_")]
    for prev, row in zip([None, *rows], rows):
        for name in errors:
            e = getattr(row, name)
            order = None if e is None else (
                0.0 if prev is None else observed_order(getattr(prev, name), e))
            setattr(row, "r" + name[1:], order)
    return rows
