"""Stabilizer-free P1 virtual elements on honeycomb meshes.

Solves the Poisson problem with homogeneous Dirichlet data on the unit
regular hexagon, measures the superconvergence of the discrete solution
towards the space interpolant, and lifts the solution to fourth-order
accuracy with patchwise cubic least squares.
"""

from .analysis import (
    StudyRow,
    norm_h1_broken_true,
    norm_l2_true,
    norms_superclose,
    observed_order,
    orders,
)
from .lattice import (
    Cell,
    CellKind,
    HoneycombMesh,
    MeshConstructionError,
    boundary_nodes,
    build_mesh,
    position,
)
from .lift import (
    LiftRankError,
    LiftResult,
    PatchGrid,
    UnsupportedLevelError,
    build_patch_grid,
    evaluate_lift,
    lift_solution,
)
from .problem import (
    Jet,
    ManufacturedProblem,
    get_problem,
    hex_sine,
    jet_eval,
    laplacian,
)
from .quadrature import QuadratureRule, integrate, monomial_integral, rule
from .solver import SolveStats, SolverConfig, SolverError, solve
from .system import (
    ELEMENT_STIFFNESS,
    DofMap,
    FieldP1,
    SparseSpd,
    assemble,
    expand,
    interpolate,
    interpolate_pointwise,
    load_vector,
    recover_centers,
    restrict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
