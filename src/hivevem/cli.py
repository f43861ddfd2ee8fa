"""Command-line driver: convergence studies and VTK export.

``hivevem study`` runs the honeycomb Poisson solver over a range of
levels, prints an aligned table of errors and dyadic orders, and can
write the same content as CSV.  ``hivevem export`` writes meshes,
solutions or lifted solutions as legacy VTK.

Exit codes: 0 success, 1 configuration error (invalid arguments,
levels or settings, or an output path, an empty one included, that
cannot be opened for writing, all found before any level is built),
2 numerical failure (any other ``ValueError`` included).  A
configuration error names the setting and quotes the check of the
module that owns the rule, :func:`~hivevem.lattice.check_level` for
levels.

The study and the export run the program's one path: the
:data:`PROBLEM` test case, CG and the cubic lift.  The direct solve is
a library reference, ``solver.solve(A, b, SolverConfig(method="chol"))``.

hivevem itself is sequential; the BLAS thread pool is set by the BLAS
library's own variables (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``)
before the process starts.  The output does not depend on it: CG sums
its reductions without BLAS, and a run gives the same bits with one
BLAS thread and with two, which the tests check at level 8.  So runs
are bit-for-bit reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, lift, quadrature, solver, system, vtkio
from .lattice import build_mesh, check_level
from .problem import ManufacturedProblem, get_problem

CSV_COLUMNS = tuple(name for name, _, _ in analysis.COLUMNS)

#: The one problem of the study and the export, the paper's test case.
PROBLEM = "hex-sine"


class ConfigError(ValueError):
    """Invalid study or export configuration."""


@dataclass(frozen=True)
class StudyConfig:
    min_level: int = 2
    max_level: int = 7
    lift_enabled: bool = False

    def __post_init__(self):
        if not isinstance(self.lift_enabled, bool):
            raise ConfigError(f"lift must be a bool, got {self.lift_enabled!r}")
        _setting("min-level", check_level, self.min_level)
        if self.lift_enabled:
            _setting("max-level with the lift", check_level, self.max_level,
                     lift.MIN_LIFT_LEVEL)
        else:
            _setting("max-level", check_level, self.max_level)
        if self.min_level > self.max_level:
            raise ConfigError(f"need min-level <= max-level, "
                              f"got {self.min_level}..{self.max_level}")


def _setting(name: str, check, *args):
    """``check(*args)``, a library function that owns an input rule; its
    ``ValueError`` becomes a :class:`ConfigError` that names the setting."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def check_writable(path) -> None:
    """Raise :class:`ConfigError` unless ``path`` can be opened for
    writing; a file that did not exist is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def solve_level(level: int, problem: ManufacturedProblem):
    """Solve one level by CG; returns ``(mesh, u_h, center_load, stats)``,
    ``center_load`` for :func:`system.recover_centers`."""
    mesh = build_mesh(level)
    A, b, center_load = system.assemble(mesh, problem)
    x, stats = solver.solve(A, b)
    return mesh, system.expand(x, mesh), center_load, stats


def study_row(
    level: int,
    problem: ManufacturedProblem,
    config: StudyConfig,
) -> analysis.StudyRow:
    mesh, u_h, center_load, _ = solve_level(level, problem)
    u_i = system.interpolate(problem, mesh)
    l2, h1, linf = analysis.norms_superclose(u_h, u_i)
    u_rec = system.recover_centers(u_h, center_load)
    lifted = None
    if config.lift_enabled and level >= lift.MIN_LIFT_LEVEL:
        lifted = lift.lift_solution(u_h, problem, lift.build_patch_grid(mesh))
    e_l2, e_lift_l2, e_lift_h1h = analysis.norm_l2_true(u_rec, problem, lift=lifted)
    return analysis.StudyRow(
        level=level,
        h=mesh.s,
        dofs=mesh.free.size,
        e_ih_l2=l2,
        e_ih_h1=h1,
        e_ih_linf=linf,
        e_l2=e_l2,
        e_lift_l2=e_lift_l2,
        e_lift_h1h=e_lift_h1h,
    )


def run_study(config: StudyConfig) -> list[analysis.StudyRow]:
    problem = get_problem(PROBLEM)
    rows = [
        study_row(level, problem, config)
        for level in range(config.min_level, config.max_level + 1)
    ]
    return analysis.orders(rows)


def _cell(value, spec: str, width: int = 0) -> str:
    """One cell: ``None`` blank, integers plain, other numbers in ``spec``."""
    if value is None:
        return " " * width
    if isinstance(value, (int, np.integer)):
        spec = ""
    return format(value, f">{width}{spec}" if width else spec)


def rows_to_csv(rows: list[analysis.StudyRow]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for r in rows:
        out.append(",".join(_cell(getattr(r, name), ".3e") for name in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def render_table(rows: list[analysis.StudyRow]) -> str:
    """Aligned table of the study; the lift columns only when a row has
    a lift, blank where a row has none."""
    has_lift = any(r.e_lift_l2 is not None for r in rows)
    columns = [c for c in analysis.COLUMNS if has_lift or "lift" not in c[0]]
    lines = [" ".join(f"{head:>{width}}" for _, head, width in columns)]
    for r in rows:
        lines.append(" ".join(
            _cell(getattr(r, name), ".2f" if name.startswith("r_") else ".3e", width)
            for name, _, width in columns
        ))
    return "\n".join(lines)


def export(level: int, what: str, path) -> None:
    """Write a mesh, solution or lifted solution as legacy VTK."""
    if what not in ("mesh", "solution", "lift"):
        raise ConfigError(f"cannot export {what!r}; use mesh, solution or lift")
    if what == "lift":
        _setting("level of the lift", check_level, level, lift.MIN_LIFT_LEVEL)
    else:
        _setting("level", check_level, level)
    check_writable(path)
    if what == "mesh":
        vtkio.write_vtk(build_mesh(level), path, title=f"honeycomb level {level}")
        return
    problem = get_problem(PROBLEM)
    mesh, u_h, center_load, _ = solve_level(level, problem)
    exact = quadrature.sample(problem.u, mesh.node_xy)
    if what == "solution":
        # The centres as the study measures them (see recover_centers).
        name, values = "u_h", system.recover_centers(u_h, center_load).values
    else:
        grid = lift.build_patch_grid(mesh)
        name, values = "u_lift", _lift_at_nodes(lift.lift_solution(u_h, problem, grid))
    vtkio.write_vtk(mesh, path, point_data={name: values, "error": exact - values},
                    title=f"{PROBLEM} {what}, level {level}")


def _lift_at_nodes(lifted: lift.LiftResult) -> np.ndarray:
    """Lift values at every node by :func:`lift.evaluate_lift`, whose
    seam rule gives a node to the lowest patch index, evaluated over
    :func:`quadrature.blocks` of nodes."""
    xy = lifted.grid.mesh.node_xy
    return np.concatenate(
        [lift.evaluate_lift(lifted, block)[0] for block in quadrature.blocks(xy, 1)])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hivevem", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="run a convergence study")
    st.add_argument("--min-level", type=int, default=2)
    st.add_argument("--max-level", type=int, default=7)
    st.add_argument("--lift", action="store_true",
                    help="fit and measure the patchwise cubic lift")
    st.add_argument("--csv", default=None, metavar="PATH")

    ex = sub.add_parser("export", help="write legacy VTK files")
    ex.add_argument("--level", type=int, required=True)
    ex.add_argument("--what", required=True, choices=("mesh", "solution", "lift"))
    ex.add_argument("--path", required=True)
    return parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "study":
            config = StudyConfig(
                min_level=args.min_level,
                max_level=args.max_level,
                lift_enabled=args.lift,
            )
            if args.csv is not None:
                check_writable(args.csv)
            start = time.perf_counter()
            rows = run_study(config)
            elapsed = time.perf_counter() - start
            print(render_table(rows))
            print(f"# {PROBLEM}, {elapsed:.2f}s")
            if args.csv is not None:
                with open(args.csv, "w", newline="\n") as fh:
                    fh.write(rows_to_csv(rows))
        else:
            export(args.level, args.what, args.path)
    except ConfigError as exc:
        print(f"hivevem: configuration error: {exc}", file=sys.stderr)
        return 1
    except (solver.SolverError, ArithmeticError, ValueError) as exc:
        print(f"hivevem: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
