"""Deterministic writers for meshes, matrices, and tabular reports.

All text formats round-trip floats through :func:`repr`, so rerunning a
command on identical inputs produces byte-identical files.

The OBJ and VTK writers format a mesh in blocks of at most ``_BLOCK_ROWS``
rows.  A block is one ``%``-format of its row template repeated once per
row, such as ``"v %r %r %r\n" * k``, applied to the block's values as
Python floats or ints.  ``%r`` of a Python float is its ``repr``, so the
bytes are those of formatting row by row, at a fraction of the cost, and
the temporaries stay the size of one block however large the surface.
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

# Rows per formatted block in the OBJ and VTK writers.
_BLOCK_ROWS = 1 << 16


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


def _write_rows(f, row: str, values: np.ndarray) -> None:
    """Write each row of ``values`` through the ``%``-template ``row``."""
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        f.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_obj(path: str, vertices: np.ndarray, triangles: np.ndarray) -> None:
    """Write a triangle mesh as a Wavefront OBJ file (1-based indices)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    with open(path, "w") as f:
        _write_rows(f, "v %r %r %r\n", vertices)
        _write_rows(f, "f %d %d %d\n", triangles + 1)
        if len(vertices) == len(triangles) == 0:
            f.write("\n")      # a file with no rows is still one line


def write_vtk_surface(path: str, vertices: np.ndarray,
                      triangles: np.ndarray) -> None:
    """Write a triangle mesh as legacy ASCII VTK POLYDATA (no point data)."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n"
                "levelsurf surface\n"
                "ASCII\n"
                "DATASET POLYDATA\n"
                f"POINTS {len(vertices)} double\n")
        _write_rows(f, "%r %r %r\n", vertices)
        f.write(f"POLYGONS {nt} {4 * nt}\n")
        _write_rows(f, "3 %d %d %d\n", triangles)


def write_matrix_market(path: str, A: sp.spmatrix) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(os.fspath(path), sp.coo_matrix(A))
