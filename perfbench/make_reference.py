"""Record the reference errors and CG iteration counts the benchmark
checks every run against.

Run from the repository root, with the BLAS pool pinned as the
benchmark pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

It runs the study on levels 1..8 with the lift and level 9 without,
and writes ``perfbench/reference.json``.  Regenerate it only in a change
that is meant to alter the numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os

from hivevem import cli, solver

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("dofs", "h", "e_ih_l2", "e_ih_h1", "e_ih_linf", "e_l2",
          "e_lift_l2", "e_lift_h1h")


def main() -> None:
    iterations = []
    real_solve = solver.solve

    def counting_solve(A, b, config=None):
        x, stats = real_solve(A, b, config)
        iterations.append(stats.iterations)
        return x, stats

    solver.solve = counting_solve
    try:
        rows = cli.run_study(cli.StudyConfig(min_level=1, max_level=8,
                                             lift_enabled=True))
        rows += cli.run_study(cli.StudyConfig(min_level=9, max_level=9))
    finally:
        solver.solve = real_solve
    levels = {}
    for row, its in zip(rows, iterations):
        entry = {name: getattr(row, name) for name in FIELDS}
        entry["iterations"] = its
        levels[str(row.level)] = entry
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump({"problem": "hex-sine", "scheme": "lattice15-corrected",
                   "levels": levels}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
