"""Solver contracts: CG and the direct factorization agree, failure to
converge within the fixed budget raises, and the multigrid
preconditioner is symmetric with a level-independent iteration count."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hivevem
from hivevem import solver
from hivevem.problem import _from_expression
from hivevem.solver import SolverConfig, SolverError, solve
from hivevem.system import SparseSpd, assemble, operator


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    M = B @ B.T + n * np.eye(n)
    return SparseSpd(sp.csr_matrix(M))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="lu")


def test_direct_matches_numpy_on_a_small_spd_system():
    A = random_spd(8, seed=1)
    rng = np.random.default_rng(2)
    b = rng.normal(size=8)
    x, _ = solve(A, b, SolverConfig(method="chol"))
    want = np.linalg.solve(A.to_csr().toarray(), b)
    assert np.allclose(x, want, atol=1e-12)


def test_cg_matches_direct(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    x_cg, stats = solve(A, b, SolverConfig(method="cg"))
    x_direct, _ = solve(A, b, SolverConfig(method="chol"))
    assert np.max(np.abs(x_cg - x_direct)) <= 1e-10
    assert stats.iterations <= A.n


def test_cg_backward_stable_residual(mesh_cache, hex_sine):
    A, b, _ = assemble(mesh_cache(5), hex_sine)
    x, stats = solve(A, b, SolverConfig(method="cg"))
    scale = (
        np.max(np.abs(A.data)) * np.max(np.abs(x)) + np.max(np.abs(b))
    )
    assert np.max(np.abs(A @ x - b)) <= 1e-12 * scale
    assert stats.recurrence_residual <= 1e-14
    assert stats.residual < 1e-8  # recomputed, floor ~ eps/h^2


def test_cg_iteration_budget_raises(
    mesh_cache, hex_sine, indefinite_preconditioner
):
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    budget = max(2 * A.n, 200)
    with pytest.raises(SolverError, match=f"did not converge in {budget} "):
        solve(A, b, SolverConfig(method="cg"))


def test_cg_with_a_nan_residual_raises(mesh_cache, hex_sine, monkeypatch):
    """A NaN residual never passes the stop test: a preconditioner that
    returns NaN makes the solve raise instead of returning NaN."""
    monkeypatch.setattr(
        solver, "_multigrid", lambda A: lambda r: np.full_like(r, np.nan))
    A, b, _ = assemble(mesh_cache(4), hex_sine)
    with pytest.raises(SolverError, match="recurrence residual nan"):
        solve(A, b, SolverConfig(method="cg"))


@pytest.mark.parametrize("rows", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]])
def test_direct_solve_of_a_singular_matrix_raises(rows):
    """SuperLU's own error for an exactly singular factor comes out as
    the :class:`SolverError` that ``solve`` promises."""
    A = SparseSpd(sp.csr_matrix(np.array(rows)))
    with pytest.raises(SolverError, match="singular"):
        solve(A, np.ones(2), SolverConfig(method="chol"))


def test_zero_rhs_short_circuits():
    A = random_spd(5)
    x, stats = solve(A, np.zeros(5), SolverConfig(method="cg"))
    assert np.all(x == 0) and stats.iterations == 0


def test_empty_system():
    A = SparseSpd(sp.csr_matrix((0, 0)))
    x, stats = solve(A, np.zeros(0))
    assert x.size == 0


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
    assert max(counts) <= 12, counts
    assert max(counts) - min(counts) <= 3, counts


def test_multigrid_coarse_operators_are_the_assembled_ones(mesh_cache, hex_sine):
    """Below the fine level, each operator of the hierarchy is the one
    ``system.operator`` builds on that level's mesh, bit for bit, and
    the transfers map between the levels' free nodes."""
    A, _, _ = assemble(mesh_cache(6), hex_sine)
    levels, coarsest = solver._hierarchy(A)
    assert levels[0][0] is A.to_csr()
    ops = [op for op, _, _ in levels[1:]] + [coarsest]
    for level, got in zip((5, 4, 3), ops, strict=True):
        want, _ = operator(mesh_cache(level))
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for level, (_, _, P) in zip((6, 5, 4), levels, strict=True):
        assert P.shape == (mesh_cache(level).free.size,
                           mesh_cache(level - 1).free.size)


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


@pytest.mark.parametrize("level", [2, 3])
def test_multigrid_on_the_coarsest_mesh_is_the_exact_solve(level, mesh_cache, hex_sine):
    """At and below ``MG_COARSEST_LEVEL`` the cycle is the dense inverse
    of A alone."""
    A, _, _ = assemble(mesh_cache(level), hex_sine)
    r = np.random.default_rng(level).normal(size=A.n)
    want = np.linalg.solve(A.to_csr().toarray(), r)
    got = solver._multigrid(A)(r)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


SUPERLU_CHECK = """
import sys
import numpy as np
from hivevem import cli, solver, system
from hivevem.lattice import build_mesh
from hivevem.problem import get_problem

cli.run_study(cli.StudyConfig(min_level=1, max_level=4, lift_enabled=True))
SUPERLU = {"scipy.sparse.linalg", "scipy.linalg"}
assert not SUPERLU & sys.modules.keys(), "imported by the default path"
A, b, _ = system.assemble(build_mesh(4), get_problem("hex-sine"))
x, _ = solver.solve(A, b, solver.SolverConfig(method="chol"))
want, _ = solver.solve(A, b)
assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want)), "wrong solution"
assert SUPERLU <= sys.modules.keys(), "SuperLU solved without it"
"""


def test_superlu_is_imported_only_by_chol():
    """In a fresh interpreter, a study of levels 1-4 with the lift leaves
    ``scipy.sparse.linalg`` (and the ``scipy.linalg`` it brings) unloaded;
    a ``chol`` solve loads it and solves."""
    src = str(Path(hivevem.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SUPERLU_CHECK],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


BLAS_THREADS_CHECK = """
import hashlib
from hivevem import lift, solver, system
from hivevem.lattice import build_mesh
from hivevem.problem import get_problem

problem, mesh = get_problem("hex-sine"), build_mesh(8)
A, b, _ = system.assemble(mesh, problem)
x, _ = solver.solve(A, b)
u_h = system.expand(x, mesh)
coeffs = lift.lift_solution(u_h, problem, lift.build_patch_grid(mesh)).coeffs
print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (x, coeffs)))
"""


def test_bits_do_not_depend_on_the_blas_thread_count():
    """The level-8 CG solution and its lift have the same bits with one
    BLAS thread and with two.  OpenBLAS splits a long ``ddot`` across its
    threads, so CG's reductions by ``@`` read other last bits at level 8
    (32 514 unknowns) with two threads.  The thread count is fixed when
    numpy loads, so each count runs in a fresh interpreter.  On a
    one-core machine OpenBLAS runs one thread either way, and this test
    proves nothing there."""
    src = str(Path(hivevem.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, "-c", BLAS_THREADS_CHECK],
                           env=dict(env, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t),
                           capture_output=True, text=True)
            for t in ("1", "2")]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert runs[0].stdout == runs[1].stdout


def test_cg_refuses_a_matrix_without_a_mesh(monkeypatch):
    """CG's V-cycle needs the lattice hierarchy, so a matrix without a
    mesh is refused before any hierarchy is built, with a message that
    names the direct solve, which solves the same system."""
    def forbidden(A):
        raise AssertionError("a hierarchy was built for a matrix without a mesh")

    monkeypatch.setattr(solver, "_hierarchy", forbidden)
    A = random_spd(12, seed=4)
    b = np.random.default_rng(5).normal(size=12)
    with pytest.raises(ValueError, match="method='chol'"):
        solve(A, b)
    x, _ = solve(A, b, SolverConfig(method="chol"))
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
