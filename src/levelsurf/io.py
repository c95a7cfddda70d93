"""Deterministic writers for meshes, matrices, and tabular reports.

All text formats round-trip floats through :func:`repr`, so rerunning a
command on identical inputs produces byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "write_obj",
    "write_vtk_surface",
    "write_vtk_tet_mesh",
    "write_matrix_market",
    "read_matrix_market",
]


def fmt(value) -> str:
    """Format a scalar for deterministic text output.

    Floats use ``repr`` (shortest round-trip form), integers and strings
    pass through unchanged.
    """
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write rows as CSV with a fixed header and deterministic formatting."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row length {len(row)} != header length {len(header)}"
            )
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    """Write a JSON document with sorted keys (deterministic)."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_obj(path: str, vertices: np.ndarray, triangles: np.ndarray) -> None:
    """Write a triangle mesh as a Wavefront OBJ file (1-based indices)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    lines = []
    for v in vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _vtk_file(path: str, title: str, dataset: str, points: np.ndarray,
              cell_lines: list[str],
              point_data: dict[str, np.ndarray] | None) -> None:
    """Write a legacy ASCII VTK file: header, POINTS, cells, POINT_DATA.

    ``cell_lines`` is the dataset's cell block as text lines; each
    ``point_data`` array must have one value per point.
    """
    points = np.asarray(points, dtype=float)
    nv = len(points)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        f"DATASET {dataset}",
        f"POINTS {nv} double",
    ]
    for v in points:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    lines.extend(cell_lines)
    if point_data:
        lines.append(f"POINT_DATA {nv}")
        for name in sorted(point_data):
            arr = np.asarray(point_data[name], dtype=float)
            if arr.shape != (nv,):
                raise ValueError(
                    f"point_data[{name!r}] has shape {arr.shape}, "
                    f"expected ({nv},)"
                )
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(repr(float(x)) for x in arr)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_vtk_surface(path: str, vertices: np.ndarray, triangles: np.ndarray,
                      point_data: dict[str, np.ndarray] | None = None) -> None:
    """Write a triangle mesh as legacy ASCII VTK POLYDATA.

    Parameters
    ----------
    point_data : dict, optional
        Scalar arrays of length n_vertices, written as POINT_DATA fields.
    """
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    cells = [f"POLYGONS {nt} {4 * nt}"]
    for t in triangles:
        cells.append(f"3 {t[0]} {t[1]} {t[2]}")
    _vtk_file(path, "levelsurf surface", "POLYDATA", vertices, cells,
              point_data)


def write_vtk_tet_mesh(path: str, nodes: np.ndarray, tets: np.ndarray,
                       point_data: dict[str, np.ndarray] | None = None) -> None:
    """Write a tetrahedral mesh as legacy ASCII VTK UNSTRUCTURED_GRID."""
    tets = np.asarray(tets, dtype=np.int64)
    nc = len(tets)
    cells = [f"CELLS {nc} {5 * nc}"]
    for t in tets:
        cells.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    cells.append(f"CELL_TYPES {nc}")
    cells.extend(["10"] * nc)
    _vtk_file(path, "levelsurf tet mesh", "UNSTRUCTURED_GRID", nodes, cells,
              point_data)


def write_matrix_market(path: str, A: sp.spmatrix) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(os.fspath(path), sp.coo_matrix(A))


def read_matrix_market(path: str) -> sp.csr_matrix:
    """Read a MatrixMarket file as CSR."""
    return sp.csr_matrix(scipy.io.mmread(os.fspath(path)))
