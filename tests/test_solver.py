"""Solver contracts: CG and the direct factorization agree, CG energy
decreases monotonically, failure to converge raises, and the multigrid
preconditioner is symmetric with a level-independent iteration count."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hivevem import solver
from hivevem.problem import _from_expression
from hivevem.solver import SolverConfig, SolverError, solve
from hivevem.system import SparseSpd, assemble


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    M = B @ B.T + n * np.eye(n)
    return SparseSpd(sp.csr_matrix(M))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="lu")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-3)  # too loose for this problem class
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(method="chol", max_iterations=5)  # no budget to cap


def test_direct_matches_numpy_on_a_small_spd_system():
    A = random_spd(8, seed=1)
    rng = np.random.default_rng(2)
    b = rng.normal(size=8)
    x, stats = solve(A, b, SolverConfig(method="chol"))
    want = np.linalg.solve(A.to_csr().toarray(), b)
    assert np.allclose(x, want, atol=1e-12)
    assert stats.converged and stats.method == "chol"


def test_cg_matches_direct(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    x_cg, stats = solve(A, b, SolverConfig(method="cg"))
    x_direct, _ = solve(A, b, SolverConfig(method="chol"))
    assert np.max(np.abs(x_cg - x_direct)) <= 1e-10
    assert stats.converged
    assert stats.iterations <= A.n


def test_cg_energy_is_monotone(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    _, stats = solve(A, b, SolverConfig(method="cg"))
    e = np.asarray(stats.energies)
    assert e.size == stats.iterations
    assert np.all(np.diff(e) <= 1e-12 * np.abs(e[:-1]))


def test_cg_backward_stable_residual(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(5), hex_sine)
    x, stats = solve(A, b, SolverConfig(method="cg", tol=1e-14))
    scale = (
        np.max(np.abs(A.data)) * np.max(np.abs(x)) + np.max(np.abs(b))
    )
    assert np.max(np.abs(A @ x - b)) <= 1e-12 * scale
    assert stats.recurrence_residual <= 1e-14
    assert stats.residual < 1e-8  # recomputed, floor ~ eps/h^2


def test_cg_iteration_budget_raises(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    with pytest.raises(SolverError):
        solve(A, b, SolverConfig(method="cg", max_iterations=2))


def test_zero_rhs_short_circuits():
    A = random_spd(5)
    x, stats = solve(A, np.zeros(5), SolverConfig(method="cg"))
    assert np.all(x == 0) and stats.iterations == 0 and stats.converged


def test_empty_system():
    A = SparseSpd(sp.csr_matrix((0, 0)))
    x, stats = solve(A, np.zeros(0))
    assert x.size == 0 and stats.converged


def test_rhs_shape_check():
    A = random_spd(5)
    with pytest.raises(ValueError):
        solve(A, np.zeros(6))


def test_solves_are_deterministic(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    x1, s1 = solve(A, b, SolverConfig(method="cg"))
    x2, s2 = solve(A, b, SolverConfig(method="cg"))
    assert np.array_equal(x1, x2)
    assert s1.iterations == s2.iterations


def test_multigrid_cycle_is_symmetric(mesh_cache, hex_sine):
    A, _, _ = assemble(mesh_cache(6), hex_sine)
    cycle = solver._multigrid(A)
    rng = np.random.default_rng(3)
    r1, r2 = rng.normal(size=(2, A.n))
    m1, m2 = cycle(r1), cycle(r2)
    gap = abs(float(m1 @ r2) - float(r1 @ m2))
    assert gap <= 1e-12 * np.linalg.norm(m1) * np.linalg.norm(r2)
    assert float(m1 @ r1) > 0.0


def test_multigrid_iterations_are_flat(mesh_cache, hex_sine):
    counts = []
    for level in range(4, 9):
        A, b, _ = assemble(mesh_cache(level), hex_sine)
        _, stats = solve(A, b, SolverConfig())
        counts.append(stats.iterations)
    assert max(counts) <= 15, counts
    assert max(counts) - min(counts) <= 3, counts


def test_multigrid_hierarchy_dies_with_the_solve(mesh_cache, hex_sine):
    """No reference cycle holds the hierarchy until a later collection."""
    A, b, _ = assemble(mesh_cache(5), hex_sine)
    gc.collect()
    gc.disable()
    try:
        solve(A, b, SolverConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_multigrid_without_a_mesh_is_the_exact_solve():
    A = random_spd(12, seed=4)
    b = np.random.default_rng(5).normal(size=12)
    x, stats = solve(A, b, SolverConfig())
    assert stats.iterations <= 2
    assert np.allclose(x, np.linalg.solve(A.to_csr().toarray(), b), atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    level=st.sampled_from([3, 4, 5]),
)
def test_multigrid_cg_matches_direct_on_random_loads(coeffs, level, mesh_cache):
    """Loads of random cubic manufactured solutions."""
    c = coeffs

    def expr(X, Y):
        return (c[0] + c[1] * X + c[2] * Y + c[3] * X * X + c[4] * X * Y
                + c[5] * Y * Y + c[6] * X ** 3 + c[7] * X * X * Y
                + c[8] * X * Y * Y + c[9] * Y ** 3)

    A, b, _ = assemble(mesh_cache(level), _from_expression("cubic", expr))
    x_mg, _ = solve(A, b, SolverConfig())
    x_direct, _ = solve(A, b, SolverConfig(method="chol"))
    assert np.max(np.abs(x_mg - x_direct), initial=0.0) <= 1e-10
