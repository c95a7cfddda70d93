"""Output checks for each ``surf`` call of the benchmark.

Every check reads the files the CLI wrote.  ``check_call`` returns a list
of problems; an empty list means the call's output is correct.  The mesh
topology of an exported OBJ is recomputed here with numpy, not with the
library under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

MASS_COND_BOUND = 2.0 * (2.0 + math.sqrt(2.0))
MAX_ANGLE_DEG = 160.0
BLOWUP_FACTOR = 100.0           # cond_As_eff(z_c = 0) / cond_As_eff(z_reg)
L2_ORDER_BAND = (1.8, 2.2)
H1_ORDER_BAND = (0.8, 1.2)
# Exact PCG iteration counts on the reference matrix at seed 0.
REFMATRIX_ITERS_SEED0 = {"none": 237, "jacobi": 237, "ilu0": 67, "milu0": 37}
EXPORT_FILES = {"obj": ["surface.obj"], "vtk": ["surface.vtk"],
                "mm": ["mass_scaled.mtx", "stiffness_scaled.mtx"]}


def output_digest(out: str) -> str:
    """SHA-256 over every output file except ``config.json``.

    ``config.json`` records the output directory, which differs per call
    by design; every other byte must repeat on a rerun.
    """
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name == "config.json":
            continue
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _flag(argv: list[str], name: str, default: str = "") -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def obj_topology(path: str) -> dict:
    """Vertex, face and edge counts of an OBJ triangle mesh, plus whether
    every edge is shared by exactly two faces (watertight) with opposite
    directions (consistently oriented)."""
    n_vertices = 0
    faces = []
    with open(path) as f:
        for line in f:
            if line.startswith("v "):
                n_vertices += 1
            elif line.startswith("f "):
                faces.append(line.split()[1:4])
    tris = np.array(faces, dtype=np.int64).reshape(-1, 3) - 1
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                               tris[:, [2, 0]]])
    undirected, counts = np.unique(np.sort(directed, axis=1), axis=0,
                                   return_counts=True)
    n_directed = len(np.unique(directed, axis=0))
    return {
        "n_vertices": n_vertices,
        "n_triangles": len(tris),
        "n_edges": len(undirected),
        "watertight": bool(len(counts) and np.all(counts == 2)),
        "oriented": n_directed == len(directed),
        "euler": n_vertices - len(undirected) + len(tris),
    }


def _check_quality_row(row: dict, where: str) -> list[str]:
    problems = []
    if not float(row["phi_max_deg"]) < MAX_ANGLE_DEG:
        problems.append(f"{where}: phi_max_deg {row['phi_max_deg']} "
                        f">= {MAX_ANGLE_DEG}")
    if not int(row["n_triangles"]) > 0:
        problems.append(f"{where}: empty surface")
    return problems


def _check_extract(argv: list[str], out: str) -> list[str]:
    rows = _read_rows(os.path.join(out, "quality.csv"))
    if len(rows) != 1:
        return [f"quality.csv has {len(rows)} rows, expected 1"]
    problems = _check_quality_row(rows[0], "extract")
    exports = [e for e in _flag(argv, "--export").split(",") if e]
    for fmt in exports:
        for name in EXPORT_FILES[fmt]:
            path = os.path.join(out, name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"export {name} missing or empty")
    if "obj" in exports and not problems:
        topo = obj_topology(os.path.join(out, "surface.obj"))
        if not (topo["watertight"] and topo["oriented"]):
            problems.append(f"surface.obj is not a closed oriented "
                            f"surface: {topo}")
        if topo["euler"] != 2:
            problems.append(f"surface.obj Euler characteristic "
                            f"{topo['euler']} != 2")
        if (topo["n_vertices"], topo["n_triangles"]) != (
                int(rows[0]["n_vertices"]), int(rows[0]["n_triangles"])):
            problems.append("surface.obj sizes differ from quality.csv")
    return problems


def _check_convergence(argv: list[str], out: str) -> list[str]:
    rows = _read_rows(os.path.join(out, "convergence.csv"))
    n_levels = len(_flag(argv, "--h-list").split(","))
    if len(rows) != n_levels:
        return [f"convergence.csv has {len(rows)} rows, expected {n_levels}"]
    l2, h1 = float(rows[-1]["l2_order"]), float(rows[-1]["h1_order"])
    problems = []
    if not L2_ORDER_BAND[0] <= l2 <= L2_ORDER_BAND[1]:
        problems.append(f"L2 order {l2} outside {L2_ORDER_BAND}")
    if not H1_ORDER_BAND[0] <= h1 <= H1_ORDER_BAND[1]:
        problems.append(f"H1 order {h1} outside {H1_ORDER_BAND}")
    return problems


def _check_conditioning(argv: list[str], out: str) -> list[str]:
    rows = _read_rows(os.path.join(out, "conditioning.csv"))
    zcs = [float(z) for z in _flag(argv, "--zc-list").split(",")]
    if [float(r["z_c"]) for r in rows] != zcs:
        return [f"conditioning.csv rows {[r['z_c'] for r in rows]} "
                f"do not match --zc-list {zcs}"]
    problems = []
    cond_as = {}
    for row in rows:
        where = f"z_c = {row['z_c']}"
        problems += _check_quality_row(row, where)
        if not float(row["cond_Ms"]) <= MASS_COND_BOUND:
            problems.append(f"{where}: cond_Ms {row['cond_Ms']} > "
                            f"2(2+sqrt 2)")
        cond_as[float(row["z_c"])] = float(row["cond_As_eff"])
        if not math.isfinite(cond_as[float(row["z_c"])]):
            problems.append(f"{where}: cond_As_eff = {row['cond_As_eff']}")
        # PCG stops at maxiter = dim without converging.
        if not int(row["pcg_iters"]) < int(row["dim_As"]):
            problems.append(f"{where}: PCG did not converge")
    z_reg = max(zcs)
    if 0.0 in cond_as and z_reg > 0.0 and not problems:
        if not cond_as[0.0] >= BLOWUP_FACTOR * cond_as[z_reg]:
            problems.append(f"no stiffness blow-up: cond_As_eff "
                            f"{cond_as[0.0]} at z_c = 0 < {BLOWUP_FACTOR} x "
                            f"{cond_as[z_reg]} at z_c = {z_reg}")
    return problems


def _check_refmatrix(argv: list[str], out: str) -> list[str]:
    with open(os.path.join(out, "refmatrix.json")) as f:
        summary = json.load(f)
    rows = _read_rows(os.path.join(out, "refmatrix.csv"))
    problems = []
    if summary["in_band"] is not True:
        problems.append(f"milu0 iterations {summary['iterations']} "
                        f"outside {summary['iteration_band']}")
    for row in rows:
        if row["converged"] != "True":
            problems.append(f"PCG with {row['precond']} did not converge")
    if int(_flag(argv, "--seed", "0")) == 0:
        if summary["iterations"] != REFMATRIX_ITERS_SEED0:
            problems.append(f"iterations {summary['iterations']} != "
                            f"{REFMATRIX_ITERS_SEED0} at seed 0")
    return problems


_CHECKS = {
    "extract": _check_extract,
    "convergence": _check_convergence,
    "conditioning": _check_conditioning,
    "refmatrix": _check_refmatrix,
}


def check_call(argv: list[str], out: str, rc) -> list[str]:
    """Problems with the outputs of ``surf <argv> --out <out>``.

    ``rc`` is the exit code, or the text of an exception that escaped
    ``cli.main``.
    """
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        return _CHECKS[argv[0]](argv, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
