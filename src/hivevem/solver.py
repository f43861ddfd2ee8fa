"""Linear solvers for the condensed SPD system.

Two methods: conjugate gradients (``cg``, the default) and a sparse
direct solve (``chol``, which despite its name is a SuperLU
factorisation, ``scipy.sparse.linalg.splu``).  Both are deterministic
for a fixed configuration.  The direct solve is the reference that CG
is checked against.

CG is preconditioned by a multigrid V-cycle on the nested lattice
hierarchy with Galerkin coarse operators (Briggs, Henson and McCormick,
*A Multigrid Tutorial*, SIAM 2000).  Its iteration count stays flat as
the mesh is refined, where Jacobi's doubles with every level.

A note on tolerances.  CG stops when the recurrence residual satisfies
``norm(r) <= tol * norm(b)``, the standard criterion.  At fine levels
the *recomputed* residual ``b - A x`` cannot drop to ``tol * norm(b)``
in double precision no matter the solver: evaluating ``A x`` for the
smooth solution of a stiffness system cancels by a factor of order
``1/h**2``, which puts a floor of roughly ``eps / h**2`` on the
measurable relative residual.  The recomputed value is therefore
reported in the statistics rather than enforced; the backward-stable
check ``max|A x - b| <= tol * (norm_inf(A) norm_inf(x) + norm_inf(b))``
is the meaningful post-condition and is what the test-suite asserts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import build_mesh
from .system import SparseSpd, refinement_transfer

METHODS = ("cg", "chol")

#: Damping factor of the Jacobi smoother in the multigrid V-cycle.
MG_OMEGA = 0.8
#: Smoothing sweeps before, and again after, each coarse correction.
MG_SWEEPS = 2
#: Level of the coarsest multigrid operator, which is factorised.
MG_COARSEST_LEVEL = 3


class SolverError(RuntimeError):
    """Raised when a solve does not meet its convergence contract."""


@dataclass(frozen=True)
class SolverConfig:
    """Validated solver settings.

    ``max_iterations=None`` selects ``max(2n, 200)``, which always
    covers the finite-termination bound of CG; an explicit value is
    used as given.  The direct solve takes no iteration budget, so it
    refuses one.
    """

    method: str = "cg"
    tol: float = 1e-14
    max_iterations: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (0.0 < self.tol <= 1e-6):
            raise ValueError(f"tol must lie in (0, 1e-6], got {self.tol}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.max_iterations is not None and self.method != "cg":
            raise ValueError(f"max_iterations applies to cg only, not {self.method}")


@dataclass
class SolveStats:
    method: str
    iterations: int
    residual: float              # recomputed |b - Ax| / |b|
    recurrence_residual: float   # CG recurrence value at termination
    converged: bool
    energies: list = field(default_factory=list)


def solve(A: SparseSpd, b: np.ndarray, config: SolverConfig | None = None):
    """Solve ``A x = b``; returns ``(x, stats)``.

    Raises :class:`SolverError` if CG fails to converge within its
    iteration budget.
    """
    if config is None:
        config = SolverConfig()
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({A.n},)")

    if A.n == 0:
        return np.zeros(0), SolveStats(config.method, 0, 0.0, 0.0, True)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(A.n), SolveStats(config.method, 0, 0.0, 0.0, True)

    if config.method == "chol":
        return _solve_direct(A, b, config, bnorm)
    return _solve_cg(A, b, config, bnorm)


def _multigrid(A: SparseSpd):
    """Symmetric V-cycle on the nested lattice hierarchy of ``A``.

    The transfers come from ``A.mesh`` down to level
    ``MG_COARSEST_LEVEL`` (:func:`system.refinement_transfer`), the
    coarse operators are the Galerkin products ``P^T A P``, and the
    coarsest one is factorised.  Each level smooths with ``MG_SWEEPS``
    damped Jacobi sweeps before and after its coarse correction; equal
    counts of a symmetric smoother make the cycle a symmetric positive
    definite operator, as CG requires.  A matrix without a mesh, or
    with a mesh no finer than the coarsest level, has no coarse levels:
    its cycle is the exact solve.
    """
    levels, op, mesh = [], A.to_csr(), A.mesh
    while mesh is not None and mesh.level > MG_COARSEST_LEVEL:
        coarse = build_mesh(mesh.level - 1)
        P = refinement_transfer(coarse, mesh)
        levels.append((op, MG_OMEGA / op.diagonal(), P))
        # Row storage of P^T for the product only: the cycle restricts
        # with the view P.T, so the hierarchy keeps one copy of P.
        op, mesh = P.T.tocsr() @ (op @ P), coarse
    coarsest = _factorise(op)
    return lambda r: _vcycle(levels, coarsest, r)


def _vcycle(levels, coarsest, r, k=0):
    """One V-cycle from level ``k`` of ``levels`` (finest first).

    A module function rather than a recursive closure, which would be a
    reference cycle and keep the hierarchy alive until the next garbage
    collection.
    """
    if k == len(levels):
        return coarsest.solve(r)
    op, w, P = levels[k]
    x = w * r
    for _ in range(MG_SWEEPS - 1):
        x += w * (r - op @ x)
    x += P @ _vcycle(levels, coarsest, P.T @ (r - op @ x), k + 1)
    for _ in range(MG_SWEEPS):
        x += w * (r - op @ x)
    return x


def _factorise(matrix: sp.spmatrix):
    """Sparse LU factorisation (SuperLU) of a symmetric matrix."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _solve_cg(A: SparseSpd, b, config: SolverConfig, bnorm: float):
    n = A.n
    maxit = config.max_iterations or max(2 * n, 200)
    apply_m = _multigrid(A)

    x = np.zeros(n)
    r = b.copy()
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    energies = []
    rnorm = bnorm
    iterations = 0
    for iterations in range(1, maxit + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        # 0.5 x'Ax - b'x expressed through the recurrence residual.
        energies.append(-0.5 * float(x @ (b + r)))
        rnorm = float(np.linalg.norm(r))
        if rnorm <= config.tol * bnorm:
            break
        z = apply_m(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    true_res = float(np.linalg.norm(b - A @ x)) / bnorm
    converged = rnorm <= config.tol * bnorm
    if not converged:
        raise SolverError(
            f"CG did not converge in {maxit} iterations: "
            f"recurrence residual {rnorm / bnorm:.3e}, "
            f"recomputed residual {true_res:.3e} (tol {config.tol:.1e})"
        )
    stats = SolveStats(
        method="cg",
        iterations=iterations,
        residual=true_res,
        recurrence_residual=rnorm / bnorm,
        converged=True,
        energies=energies,
    )
    return x, stats


def _solve_direct(A: SparseSpd, b, config: SolverConfig, bnorm: float):
    lu = _factorise(A.to_csr())
    x = lu.solve(b)
    refinements = 0
    res = b - A @ x
    rel = float(np.linalg.norm(res)) / bnorm
    while rel > config.tol and refinements < 2:
        x = x + lu.solve(res)
        refinements += 1
        res = b - A @ x
        new_rel = float(np.linalg.norm(res)) / bnorm
        if new_rel >= rel:
            break
        rel = new_rel
    if not np.all(np.isfinite(x)) or rel > 1e-8:
        raise SolverError(f"direct solve failed: relative residual {rel:.3e}")
    stats = SolveStats(
        method="chol",
        iterations=refinements,
        residual=rel,
        recurrence_residual=rel,
        converged=True,
    )
    return x, stats
