"""Linear solvers for the condensed SPD system.

Two methods: conjugate gradients (``cg``, the default) and a sparse
direct solve (``chol``, which despite its name is a SuperLU
factorisation, ``scipy.sparse.linalg.splu``).  Both are deterministic
for a fixed configuration, and CG's bits do not depend on the BLAS
thread count either: it sums its reductions with :func:`_dot`.  The
program solves with CG only; the direct solve is the library reference
that CG is checked against, ``solve(A, b, SolverConfig(method="chol"))``,
and needs about 2 GB at level 10.

CG is preconditioned by a multigrid V-cycle on the nested lattice
hierarchy, whose coarse operators are re-discretised: each level's is
built from its own mesh as the fine one is (Briggs, Henson and
McCormick, *A Multigrid Tutorial*, SIAM 2000).  Its iteration count
stays flat as the mesh is refined, where Jacobi's doubles with every
level.  The coarsest level has at most 24 unknowns and is solved with a
dense inverse, so SuperLU (and ``scipy.sparse.linalg``, imported only
when needed) serves only ``chol``.  CG needs the lattice hierarchy, so
it refuses a matrix without a mesh; such a matrix takes ``chol``.

A note on tolerances.  CG works to one fixed relative tolerance,
:data:`TOL`: it stops when the recurrence residual satisfies
``norm(r) <= TOL * norm(b)``.  The direct solve is one factorisation
and one solve, with no refinement, checked against a recomputed
relative residual of 1e-8.  The tolerance is not a setting because
the study's result depends on it: the superclose errors fall like
``h**4``, so any looser stop puts a solver error above them at fine
levels.  With ``1e-6``, a study of levels 6 to 8 printed superclose H1
orders 1.75 and 1.16 at levels 7 and 8, where ``1e-14`` gives 4.00 and
4.00.  Neither is the CG budget a setting: ``max(2n, 200)`` covers the
finite-termination bound of CG, and the multigrid-preconditioned
iteration needs 10 to 12 steps at every level, so a smaller budget
could only fail a run.

At fine levels the *recomputed* residual ``b - A x`` cannot drop to
``TOL * norm(b)`` in double precision no matter the solver: evaluating
``A x`` for the smooth solution of a stiffness system cancels by a
factor of order ``1/h**2``, which puts a floor of roughly ``eps / h**2``
on the measurable relative residual.  The recomputed value is therefore
reported in the statistics rather than enforced; the backward-stable
check ``max|A x - b| <= TOL * (norm_inf(A) norm_inf(x) + norm_inf(b))``
is the meaningful post-condition and is what the test-suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import build_mesh
from .system import SparseSpd, operator, refinement_transfer

METHODS = ("cg", "chol")

#: Relative residual at which CG stops; see the note on tolerances above.
TOL = 1e-14

#: Damping factor of the Jacobi smoother in the multigrid V-cycle.
MG_OMEGA = 0.8
#: Smoothing sweeps before, and again after, each coarse correction.
MG_SWEEPS = 2
#: Level of the coarsest multigrid operator (24 unknowns), which is
#: inverted densely.
MG_COARSEST_LEVEL = 3


class SolverError(RuntimeError):
    """Raised when a solve does not meet its convergence contract."""


@dataclass(frozen=True)
class SolverConfig:
    """Validated solver settings: the method, one of :data:`METHODS`."""

    method: str = "cg"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


@dataclass
class SolveStats:
    iterations: int
    residual: float              # recomputed |b - Ax| / |b|
    recurrence_residual: float   # CG recurrence value at termination


def solve(A: SparseSpd, b: np.ndarray, config: SolverConfig | None = None):
    """Solve ``A x = b``; returns ``(x, stats)``.

    Raises :class:`SolverError` if CG fails to converge within its
    iteration budget of ``max(2n, 200)``, or if the direct solve meets a
    singular matrix or leaves a relative residual above 1e-8, so every
    solve that returns has passed its convergence test.  CG raises
    ``ValueError`` for a matrix without a mesh and a nonzero ``b``; such
    a system takes ``method="chol"``.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({A.n},)")

    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:  # the empty system of level 1 included
        return np.zeros(A.n), SolveStats(0, 0.0, 0.0)

    if config.method == "chol":
        return _solve_direct(A, b, bnorm)
    return _solve_cg(A, b, bnorm)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed by numpy's own loop, not by BLAS ``ddot``,
    which splits long vectors across its threads: so CG's bits do not
    depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _multigrid(A: SparseSpd):
    """Symmetric V-cycle on the nested lattice hierarchy of ``A``.

    The levels are those of :func:`_hierarchy`.  The coarsest operator,
    that of ``MG_COARSEST_LEVEL`` or ``A`` itself on a mesh no finer,
    has at most 24 unknowns: it is inverted once with numpy and
    symmetrised, ``0.5 * (inv + inv.T)``, so the cycle applies an
    exactly symmetric matrix there.  Each level smooths with
    ``MG_SWEEPS`` damped Jacobi sweeps before and after its coarse
    correction; equal counts of a symmetric smoother make the cycle a
    symmetric positive definite operator, as CG requires.  A matrix
    without a mesh has no hierarchy and raises ``ValueError``.
    """
    if A.mesh is None:
        raise ValueError("CG needs the lattice hierarchy of a mesh; solve a "
                         "matrix without one with method='chol'")
    levels, op = _hierarchy(A)
    inv = np.linalg.inv(op.toarray())
    coarsest = 0.5 * (inv + inv.T)
    return lambda r: _vcycle(levels, coarsest, r)


def _hierarchy(A: SparseSpd):
    """Levels of the V-cycle, finest first, and the coarsest operator.

    Each level below ``A.mesh``, down to ``MG_COARSEST_LEVEL``, has the
    operator that :func:`system.operator` builds on its own mesh, as
    :func:`system.assemble` builds ``A``, rather than the Galerkin
    product ``P^T A P``: about 13 nonzeros per row, as on the fine
    level, instead of about 36.  The transfer to the next finer level
    (:func:`system.refinement_transfer`) reuses that level's
    prolongation.  Each entry of ``levels`` is ``(op, w, P)``: a level's
    operator, its damped inverse diagonal and the transfer from the
    level below.
    """
    levels, op, mesh = [], A.to_csr(), A.mesh
    while mesh.level > MG_COARSEST_LEVEL:
        coarse = build_mesh(mesh.level - 1)
        coarse_op, C = operator(coarse)
        P = refinement_transfer(coarse, mesh, C)
        levels.append((op, MG_OMEGA / op.diagonal(), P))
        op, mesh = coarse_op, coarse
    return levels, op


def _vcycle(levels, coarsest, r, k=0):
    """One V-cycle from level ``k`` of ``levels`` (finest first).

    A module function rather than a recursive closure, which would be a
    reference cycle and keep the hierarchy alive until the next garbage
    collection.
    """
    if k == len(levels):
        return coarsest @ r
    op, w, P = levels[k]
    x = w * r
    for _ in range(MG_SWEEPS - 1):
        x += w * (r - op @ x)
    x += P @ _vcycle(levels, coarsest, P.T @ (r - op @ x), k + 1)
    for _ in range(MG_SWEEPS):
        x += w * (r - op @ x)
    return x


def _solve_cg(A: SparseSpd, b, bnorm: float):
    n = A.n
    maxit = max(2 * n, 200)
    apply_m = _multigrid(A)

    x = np.zeros(n)
    r = b.copy()
    z = apply_m(r)
    p = z.copy()
    rz = _dot(r, z)
    rnorm = bnorm
    iterations = 0
    for iterations in range(1, maxit + 1):
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        rnorm = math.sqrt(_dot(r, r))
        if rnorm <= TOL * bnorm:
            break
        z = apply_m(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    res = b - A @ x
    true_res = math.sqrt(_dot(res, res)) / bnorm
    if not rnorm <= TOL * bnorm:  # also when rnorm is NaN
        raise SolverError(
            f"CG did not converge in {maxit} iterations: "
            f"recurrence residual {rnorm / bnorm:.3e}, "
            f"recomputed residual {true_res:.3e} (tol {TOL:.1e})"
        )
    stats = SolveStats(
        iterations=iterations,
        residual=true_res,
        recurrence_residual=rnorm / bnorm,
    )
    return x, stats


def _solve_direct(A: SparseSpd, b, bnorm: float):
    """One sparse LU (SuperLU) factorisation and one solve, without
    refinement: its relative residual is below 1e-14 up to level 5 and
    about 1e-12 at level 9, against the 1e-8 it must meet.  A
    singular matrix raises :class:`SolverError`, as does any residual
    above 1e-8 or NaN.

    ``scipy.sparse.linalg`` is imported here, not with the module: it
    brings ``scipy.linalg`` with it, about 10 MB of resident memory
    that the default CG path does not need.
    """
    from scipy.sparse.linalg import splu

    try:
        x = splu(A.to_csr().tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
        raise SolverError(f"direct solve failed: {err}") from None
    res = b - A @ x
    rel = math.sqrt(_dot(res, res)) / bnorm
    if not rel <= 1e-8:  # also when rel is NaN
        raise SolverError(f"direct solve failed: relative residual {rel:.3e}")
    return x, SolveStats(0, rel, rel)
