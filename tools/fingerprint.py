"""Print SHA-256 fingerprints of the pipeline's arrays, level by level.

For every level given it hashes the mesh (``node_ij``, ``tris``,
``centers``, ``free``, ``center_corners``), its ``tri_table``, which
the lift's patch grid reads at the coarse level, the condensed matrix A
(``data``, ``indices``, ``indptr``), the multigrid hierarchy of
``solver._hierarchy`` (every level's operator and transfer, and the
coarsest operator, each as ``data``, ``indices``, ``indptr``), the load
b, the centre loads, the CG solution, the recovered field and, from
level 3, the lift's ``coeffs`` and ``residual``; the lift's rank and
smallest singular values are constants of the lattice.  The last two
lines hash the study ``hivevem study --min-level 1 --max-level MAX
--lift`` for the largest level given
(without ``--lift`` below level 3): its CSV, and every error and order
value of its rows as ``float.hex``, which shows the changes in the last
bits that the CSV's three digits hide.  Then come the bytes of the files
that ``hivevem export`` writes at the largest level given: the mesh, the
solution and, from level 3, the lift.

Index arrays are hashed as int64 values, so a change of integer dtype
alone leaves a hash as it was.  Two checkouts that print the same lines
compute the same numbers bit for bit.  The lines do not depend on the
BLAS thread count: one thread and two print the same.

Usage: ``python tools/fingerprint.py LEVEL [LEVEL ...]``; it imports
``hivevem`` from the ``src`` directory next to it.  Every argument must
be a level that :func:`hivevem.lattice.check_level` accepts; otherwise
it prints the reason and the usage, hashes nothing and exits with 1.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hivevem import cli, lift, solver, system  # noqa: E402
from hivevem.lattice import build_mesh, check_level  # noqa: E402
from hivevem.problem import get_problem  # noqa: E402


def digest(*arrays) -> str:
    """SHA-256 of the shapes and bytes of ``arrays``, integers as int64."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        if a.dtype.kind in "iu":
            a = a.astype(np.int64)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def level_hashes(level: int, problem) -> list[tuple[str, str]]:
    mesh = build_mesh(level)
    A, b, center_load = system.assemble(mesh, problem)
    csr = A.to_csr()
    x, _ = solver.solve(A, b)
    u_h = system.expand(x, mesh)
    levels, coarsest = solver._hierarchy(A)
    hierarchy = [m for op, _, P in levels for m in (op, P)] + [coarsest]
    out = [
        ("mesh", digest(mesh.node_ij, mesh.tris, mesh.centers, mesh.free,
                        mesh.center_corners)),
        ("tri_table", digest(mesh.tri_table)),
        ("A", digest(csr.data, csr.indices, csr.indptr)),
        ("hierarchy", digest(*(getattr(m, name) for m in hierarchy
                               for name in ("data", "indices", "indptr")))),
        ("b", digest(b)),
        ("center_load", digest(center_load)),
        ("x", digest(x)),
        ("recovered", digest(system.recover_centers(u_h, center_load).values)),
    ]
    if level >= lift.MIN_LIFT_LEVEL:
        r = lift.lift_solution(u_h, problem, lift.build_patch_grid(mesh))
        out += [(f"lift {name}", digest(getattr(r, name)))
                for name in ("coeffs", "residual")]
    return out


def study_hashes(max_level: int) -> list[tuple[str, str]]:
    """Hashes of the study's CSV and of its error and order values."""
    rows = cli.run_study(cli.StudyConfig(
        min_level=1, max_level=max_level,
        lift_enabled=max_level >= lift.MIN_LIFT_LEVEL))
    values = [getattr(r, name) for r in rows for name in cli.CSV_COLUMNS
              if name.startswith(("e_", "r_"))]
    exact = " ".join("None" if v is None else float(v).hex() for v in values)
    return [("csv", hashlib.sha256(cli.rows_to_csv(rows).encode()).hexdigest()),
            ("values", hashlib.sha256(exact.encode()).hexdigest())]


def export_hashes(level: int) -> list[tuple[str, str]]:
    """Hashes of the bytes of every ``export`` kind at ``level``."""
    kinds = ["mesh", "solution"] + (["lift"] if level >= lift.MIN_LIFT_LEVEL else [])
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for what in kinds:
            path = Path(tmp) / f"{what}.vtk"
            cli.export(level, what, path)
            out.append((what, hashlib.sha256(path.read_bytes()).hexdigest()))
    return out


def main(argv=None) -> int:
    try:
        levels = [int(a) for a in (sys.argv[1:] if argv is None else argv)]
        if not levels:
            raise ValueError("no level given")
        for level in levels:
            check_level(level)
    except ValueError as exc:
        print(f"fingerprint: {exc}", file=sys.stderr)
        print("usage: python tools/fingerprint.py LEVEL [LEVEL ...]", file=sys.stderr)
        return 1
    problem = get_problem("hex-sine")
    for level in levels:
        for name, h in level_hashes(level, problem):
            print(f"level {level:2d}  {name:29s} {h}")
    for name, h in study_hashes(max(levels)):
        print(f"study 1..{max(levels)}  {name:29s} {h}")
    for name, h in export_hashes(max(levels)):
        print(f"export {max(levels):2d}  {name:29s} {h}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
