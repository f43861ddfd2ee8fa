"""Error norms and convergence-order bookkeeping.

The superclose quantity is the difference between the space interpolant
of the exact solution and the discrete solution.  Both are piecewise
linear on the triangular submesh, so its L2 norm is integrated exactly
by a degree-2 rule, its H1 seminorm is a sum of squared edge
differences (the element stiffness of the equilateral subtriangles) and
its max norm is taken over the mesh vertices (the honeycomb degrees of
freedom; interior hexagon centres are slaved values, not vertices).

True errors against the exact solution use a higher-degree rule,
degree 6 by default, on the subtriangles.  Lift errors are broken over
patches: each patch cubic is integrated over its own 16 subtriangles,
and the H1 seminorm uses the analytic cubic gradients.  The monomials
are tabulated once per patch frame and applied to blocks of patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SQRT3, HoneycombMesh
from .lift import LiftResult, patch_quadrature
from .problem import ManufacturedProblem
from .quadrature import rule
from .system import FieldP1, tri_quadrature

#: Errors at or below this scale count as round-off; no order is formed.
ROUNDOFF = 100.0 * np.finfo(float).eps


class MeshMismatchError(ValueError):
    """Fields compared across different meshes."""


def _nodal_l2(mesh: HoneycombMesh, nodal: np.ndarray, degree: int) -> float:
    q = rule(degree)
    vals = nodal[mesh.tris] @ q.points.T          # (T, nq)
    return math.sqrt(mesh.tri_area * float(np.einsum("tq,q->", vals ** 2, q.weights)))


def _nodal_h1(mesh: HoneycombMesh, nodal: np.ndarray) -> float:
    # On an equilateral triangle of any size, the integral of |grad v|^2
    # is the sum of the squared edge differences over 2 sqrt(3).
    v = nodal[mesh.tris]
    d = v[:, [1, 2, 0]] - v
    return math.sqrt(float(np.sum(d * d)) / (2.0 * SQRT3))


def norms_superclose(
    u_h: FieldP1,
    u_i: FieldP1,
    degree: int = 2,
) -> tuple[float, float, float]:
    """L2, H1-seminorm and vertex max norm of ``u_i - u_h``.

    Degree 2 already integrates the piecewise-quadratic integrand
    exactly; the parameter exists so the exactness is testable.
    """
    if u_h.mesh is not u_i.mesh:
        raise MeshMismatchError("superclose norms need fields on one mesh")
    mesh = u_h.mesh
    diff = u_i.values - u_h.values
    l2 = _nodal_l2(mesh, diff, degree)
    h1 = _nodal_h1(mesh, diff)
    linf = float(np.max(np.abs(diff[mesh.nh_nodes])))
    return l2, h1, linf


def norm_l2_true(approx, problem: ManufacturedProblem, degree: int = 6) -> float:
    """L2 norm of ``u - approx`` for a nodal field or a lifted solution."""
    if isinstance(approx, FieldP1):
        return _field_l2_error(approx, problem, degree)
    if isinstance(approx, LiftResult):
        return _lift_l2_error(approx, problem, degree)
    raise TypeError(f"cannot measure {type(approx).__name__}")


def _field_l2_error(u_h: FieldP1, problem, degree: int) -> float:
    mesh = u_h.mesh
    q = rule(degree)
    total = 0.0
    for tris, xy in tri_quadrature(mesh, q):
        exact = np.asarray(problem.u(*xy)).reshape(-1, q.n_points)
        approx = u_h.values[tris] @ q.points.T
        total += float(np.einsum("tq,q->", (exact - approx) ** 2, q.weights))
    return math.sqrt(mesh.tri_area * total)


def _lift_l2_error(lift: LiftResult, problem, degree: int) -> float:
    q = rule(degree)
    weights = np.tile(q.weights, 16)
    total = 0.0
    for ids, xy, basis in patch_quadrature(lift.grid, degree):
        fitted = lift.coeffs[ids] @ basis[:, 0].T
        diff = problem.u(*xy) - fitted
        total += float(np.sum(diff ** 2 @ weights))
    return math.sqrt(lift.grid.mesh.tri_area * total)


def norm_h1_broken_true(
    lift: LiftResult, problem: ManufacturedProblem, degree: int = 6
) -> float:
    """Patch-broken H1 seminorm of ``u - lift`` via analytic gradients."""
    q = rule(degree)
    weights = np.tile(q.weights, 16)
    total = 0.0
    for ids, xy, basis in patch_quadrature(lift.grid, degree):
        coeffs = lift.coeffs[ids] / lift.grid.edge
        ux, uy = problem.grad_u(*xy)
        sq = (ux - coeffs @ basis[:, 1].T) ** 2 + (uy - coeffs @ basis[:, 2].T) ** 2
        total += float(np.sum(sq @ weights))
    return math.sqrt(lift.grid.mesh.tri_area * total)


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


@dataclass
class StudyRow:
    """One refinement level of a convergence study, with the fields of
    :data:`COLUMNS`.

    Lift entries are ``None`` below the first lift level or when the
    lift is disabled; order entries are the 0.0 sentinel on first rows
    and whenever either error sits at round-off.
    """

    level: int
    h: float
    dofs: int
    e_ih_l2: float
    e_ih_h1: float
    e_ih_linf: float
    e_l2: float
    e_lift_l2: float | None = None
    e_lift_h1h: float | None = None
    r_ih_l2: float = 0.0
    r_ih_h1: float = 0.0
    r_ih_linf: float = 0.0
    r_l2: float = 0.0
    r_lift_l2: float | None = None
    r_lift_h1h: float | None = None


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
