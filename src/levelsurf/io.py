"""Deterministic writers for meshes, matrices, and tabular reports.

All text formats round-trip floats through :func:`repr`, so rerunning a
command on identical inputs produces byte-identical files.

The OBJ and VTK writers share one writer that formats a mesh in blocks of
at most ``_BLOCK_ROWS`` rows.  A block is one ``%``-format of its row
template repeated once per row, such as ``"%r %r %r\n" * k``, applied to
the block's values as Python floats or ints.  ``%r`` of a Python float is
its ``repr``, so the bytes are those of formatting row by row, at a
fraction of the cost, and the temporaries stay the size of one block
however large the surface.  A vertex block is formatted once: VTK writes
its text as is and OBJ prefixes each of its lines with ``"v "``, so
writing both files formats every vertex coordinate once.
"""

from __future__ import annotations

import contextlib
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


def _blocks(row: str, values: np.ndarray):
    """Yield the text of each ``_BLOCK_ROWS`` rows of ``values`` through the
    ``%``-template ``row``."""
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_surface(vertices: np.ndarray, triangles: np.ndarray,
                   obj_path: str | None = None,
                   vtk_path: str | None = None) -> None:
    """Write a triangle mesh as OBJ, legacy VTK, or both.

    Each vertex block is formatted once and written to every file asked for.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nt = len(triangles)
    with contextlib.ExitStack() as stack:
        obj, vtk = (None if path is None else stack.enter_context(open(path, "w"))
                    for path in (obj_path, vtk_path))
        if vtk:
            vtk.write("# vtk DataFile Version 3.0\n"
                      "levelsurf surface\n"
                      "ASCII\n"
                      "DATASET POLYDATA\n"
                      f"POINTS {len(vertices)} double\n")
        for text in _blocks("%r %r %r\n", vertices):
            if vtk:
                vtk.write(text)
            if obj:
                obj.write("v " + text[:-1].replace("\n", "\nv ") + "\n")
        if obj:
            obj.writelines(_blocks("f %d %d %d\n", triangles + 1))
            if len(vertices) == nt == 0:
                obj.write("\n")      # a file with no rows is still one line
        if vtk:
            vtk.write(f"POLYGONS {nt} {4 * nt}\n")
            vtk.writelines(_blocks("3 %d %d %d\n", triangles))


def write_obj(path: str, vertices: np.ndarray, triangles: np.ndarray) -> None:
    """Write a triangle mesh as a Wavefront OBJ file (1-based indices)."""
    _write_surface(vertices, triangles, obj_path=path)


def write_vtk_surface(path: str, vertices: np.ndarray,
                      triangles: np.ndarray) -> None:
    """Write a triangle mesh as legacy ASCII VTK POLYDATA (no point data)."""
    _write_surface(vertices, triangles, vtk_path=path)


def write_matrix_market(path: str, A: sp.spmatrix) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(os.fspath(path), sp.coo_matrix(A))
