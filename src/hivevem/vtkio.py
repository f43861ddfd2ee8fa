"""Legacy ASCII VTK output of meshes and nodal fields.

Writes version-3.0 unstructured grids: lattice nodes as 3D points with
z = 0, subtriangles as cells of type 5 (VTK_TRIANGLE), and optional
point-data scalars in float64.  Files use Unix newlines and a fixed
float format, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .lattice import HoneycombMesh

VTK_TRIANGLE = 5


def _write_rows(fh, fmt: str, rows: np.ndarray) -> None:
    """Write one ``fmt`` line per row of the 2-D ``rows``, a block of
    :data:`~hivevem.quadrature.BLOCK_POINTS` rows at a time, each block
    formatted by one ``%``."""
    for block in quadrature.blocks(rows, 1):
        fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def write_vtk(
    mesh: HoneycombMesh,
    path,
    point_data: dict[str, np.ndarray] | None = None,
    title: str = "honeycomb mesh",
) -> None:
    """Write the triangular submesh, optionally with nodal scalars."""
    fields = {}
    for name, values in (point_data or {}).items():
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise ValueError(
                f"point data {name!r} has shape {values.shape}, "
                f"expected ({mesh.n_nodes},)"
            )
        fields[name] = values
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n"
        )
        _write_rows(fh, "%.17g %.17g 0\n", mesh.node_xy)
        fh.write(f"CELLS {mesh.n_tris} {4 * mesh.n_tris}\n")
        _write_rows(fh, "3 %d %d %d\n", mesh.tris)
        fh.write(f"CELL_TYPES {mesh.n_tris}\n")
        fh.write(f"{VTK_TRIANGLE}\n" * mesh.n_tris)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "%.17g\n", values[:, None])
