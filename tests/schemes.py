"""Reference data schemes of the cubic lift, fitted patch by patch.

The program fits one scheme: all 15 sites of each patch, with centre
values corrected by ``(s**2/4) f``, one constant pseudo-inverse per
frame (:func:`hivevem.lift.lift_solution`).  The tests keep the others
as references and fit every scheme here the direct way, with
``np.linalg.lstsq`` on each patch's own design matrix, in the frame of
its corners' mean and the edge 4 s:

``lattice15-corrected``
    the program's scheme;
``paper11-plain`` / ``paper11-corrected``
    the mesh vertices of the patch plus its centre-class corner, centre
    data plain or corrected: the smallest site set with a provable rank;
``oracle-center``
    all 15 sites with exact solution values at the centres, which
    isolates the effect of the centre-data correction.
"""

import numpy as np

from hivevem.lattice import node_class, position
from hivevem.lift import MONOMIAL_POWERS, LiftResult

SCHEMES = ("lattice15-corrected", "paper11-plain", "paper11-corrected",
           "oracle-center")


def scheme_sites(grid, p, scheme):
    """Site ids (into the 15) that a scheme fits on patch ``p``, derived
    from the mesh: all 15, or the mesh vertices plus the corner of
    centre class."""
    if scheme in ("lattice15-corrected", "oracle-center"):
        return np.arange(15)
    ij = grid.mesh.node_ij[grid.site_nodes[p]]
    corner = (ij[:, None] == grid.corners_ij[p]).all(axis=-1).any(axis=1)
    keep = ~grid.mesh.is_center[grid.site_nodes[p]]
    keep |= corner & (node_class(ij[:, 0], ij[:, 1]) == 0)
    return np.flatnonzero(keep)


def node_data(u_h, problem, scheme):
    """Fit data at every node: ``u_h``, with the interior centres set to
    exact values (oracle) or corrected by ``(s**2/4) f``."""
    mesh = u_h.mesh
    values = u_h.values.copy()
    x, y = mesh.node_xy[mesh.centers].T
    if scheme == "oracle-center":
        values[mesh.centers] = problem.u(x, y)
    elif scheme.endswith("-corrected"):
        values[mesh.centers] += 0.25 * mesh.s ** 2 * problem.f(x, y)
    return values


def patch_fit(grid, p, sites, values):
    """``lstsq`` fit of patch ``p`` to nodal ``values`` at ``sites``:
    coefficients (10,), rank, singular values and residual norm."""
    mesh = grid.mesh
    nodes = grid.site_nodes[p, sites]
    X = (mesh.node_xy[nodes] - position(grid.corners_ij[p], mesh.s).mean(axis=0))
    X /= 4.0 * mesh.s
    A = np.stack([X[:, 0] ** a * X[:, 1] ** b for a, b in MONOMIAL_POWERS], 1)
    coeffs, _, rank, sv = np.linalg.lstsq(A, values[nodes], rcond=None)
    return coeffs, rank, sv, float(np.linalg.norm(A @ coeffs - values[nodes]))


def scheme_lift(u_h, problem, grid, scheme):
    """Every patch fitted under ``scheme``: a :class:`LiftResult` for the
    library's evaluators and norms, and the rank and smallest singular
    value of each fit (P,)."""
    values = node_data(u_h, problem, scheme)
    fits = [patch_fit(grid, p, scheme_sites(grid, p, scheme), values)
            for p in range(grid.n_patches)]
    coeffs, rank, sv, residual = zip(*fits)
    return (LiftResult(grid, np.array(coeffs), np.array(residual)),
            np.array(rank, dtype=int), np.array([s[-1] for s in sv]))
