"""Shared fixtures: meshes and solved fields are cached per session."""

import numpy as np
import pytest

from hivevem import solver
from hivevem.lattice import build_mesh, position
from hivevem.lift import MONOMIAL_POWERS
from hivevem.problem import get_problem
from hivevem.solver import solve
from hivevem.system import assemble, expand


@pytest.fixture(scope="session")
def mesh_cache():
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = build_mesh(level)
        return cache[level]

    return get


@pytest.fixture(scope="session")
def solved_cache(mesh_cache):
    """level -> (mesh, u_h, center_load, stats) for hex-sine, solved with
    the study's CG; ``test_solver.py`` and criterion 8 compare CG with
    the direct solve."""
    cache = {}

    def get(level):
        if level not in cache:
            problem = get_problem("hex-sine")
            mesh = mesh_cache(level)
            A, b, center_load = assemble(mesh, problem)
            x, stats = solve(A, b)
            cache[level] = (mesh, expand(x, mesh), center_load, stats)
        return cache[level]

    return get


@pytest.fixture
def indefinite_preconditioner(monkeypatch):
    """Replace the multigrid cycle by ``r -> s * r`` with signs ``s``
    alternating along the unknowns: an indefinite preconditioner under
    which CG cannot converge, so a solve exhausts its iteration budget."""

    def multigrid(A):
        signs = np.where(np.arange(A.n) % 2, -1.0, 1.0)
        return lambda r: signs * r

    monkeypatch.setattr(solver, "_multigrid", multigrid)


@pytest.fixture(scope="session")
def hex_sine():
    return get_problem("hex-sine")


@pytest.fixture(scope="session")
def patch_cubic():
    """Value (k,) and gradient (k, 2) at points ``xy`` (k, 2) of the
    cubic ``lifted.coeffs[p]``, summed term by term over
    ``MONOMIAL_POWERS`` in patch ``p``'s frame, which is rebuilt here
    from the corners: origin at their mean, coordinates over the edge
    4 s."""

    def evaluate(lifted, p, xy):
        grid = lifted.grid
        corners = position(grid.corners_ij[p], grid.mesh.s)
        scale = 4.0 * grid.mesh.s
        X, Y = ((np.atleast_2d(xy) - corners.mean(axis=0)) / scale).T
        value, gx, gy = np.zeros((3, X.size))
        for c, (a, b) in zip(lifted.coeffs[p], MONOMIAL_POWERS):
            value += c * X ** a * Y ** b
            gx += c * a * X ** max(a - 1, 0) * Y ** b / scale
            gy += c * b * X ** a * Y ** max(b - 1, 0) / scale
        return value, np.stack([gx, gy], axis=1)

    return evaluate
