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
    "write_matrix_market",
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


def _write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines`` as text, each ended by a newline."""
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write rows as CSV with a fixed header and deterministic formatting."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row length {len(row)} != header length {len(header)}"
            )
        lines.append(",".join(fmt(v) for v in row))
    _write_lines(path, lines)


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
    _write_lines(path, lines)


def write_vtk_surface(path: str, vertices: np.ndarray,
                      triangles: np.ndarray) -> None:
    """Write a triangle mesh as legacy ASCII VTK POLYDATA (no point data)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    lines = [
        "# vtk DataFile Version 3.0",
        "levelsurf surface",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {len(vertices)} double",
    ]
    for v in vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    lines.append(f"POLYGONS {nt} {4 * nt}")
    for t in triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    _write_lines(path, lines)


def write_matrix_market(path: str, A: sp.spmatrix) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(os.fspath(path), sp.coo_matrix(A))
