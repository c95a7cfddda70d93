"""Command-line driver for the surface-extraction experiments.

Subcommands
-----------
extract       build a mesh, extract the zero level set, report quality
convergence   interpolation-error sweep over a list of mesh sizes
conditioning  angle/conditioning table over a list of sphere shifts z_c
refmatrix     PCG iteration counts on the block-tridiagonal reference matrix
massbound     mass-matrix conditioning sweep (scaled vs unscaled)

The setup is fixed: the Kuhn grid of ``BOX`` = [-2,2]^3, the unit sphere
shifted by z_c (``SphereLevelSet`` with its default radius 1), the
surface function ``SURFACE_FUNCTION`` = product-arctan and the PCG
tolerance ``PCG_TOL`` = 1e-8.  Only mesh sizes, z_c, the seed and the
reference-matrix size are set on the command line, and only ``extract``
exports files (``--export``, any of ``EXPORT_FORMATS``).

``conditioning`` and ``refmatrix`` run their rows in forked worker
processes, one per usable CPU up to the number of rows, and in this
process when one is enough.  A ``conditioning`` row is a function of
(h, seed, z_c) alone: its PCG right-hand side comes from ``--seed`` and
not from the rows before it.  A ``refmatrix`` row is one preconditioner's
PCG solve of the one system the command builds.  A row returns data and
writes no file; this process writes every output.  ``extract --export``
with ``mm`` runs two parts the same way: one returns the quality report
and writes the OBJ and VTK files, the other writes the two Matrix
Market files itself, so their text never passes through this process.
A row reaches its worker through the fork, unpickled; only its result
is pickled.  ``convergence`` and ``extract`` run their per-triangle
loops (the error quadrature, the quality report) on one thread per
usable CPU where a loop holds two full blocks or more, and on one
thread inside a worker.  So the outputs do not depend on the worker or
thread count.  Peak memory is per worker.

Exit codes: 0 success, 2 acceptance-band violation or a conditioning row
whose effective condition number or PCG solve did not converge, 1
operational error (including any other solver failure).
Every run writes ``config.json`` (the resolved configuration) next to its
outputs; reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys
from functools import partial

import numpy as np

from . import io as lsio
from .level_set import (
    SphereLevelSet,
    interpolate_nodal,
    product_arctan_function,
    snap_small_values,
)
from .mesh_quality import quality_report
from .sparse_linalg import (
    EigNonConvergence,
    ZeroPivotError,
    _norm,
    build_reference_matrix,
    effective_cond,
    pcg,
)
from .surface_extract import extract_surface
from .surface_fem import (
    assemble_mass,
    assemble_stiffness,
    diag_scale,
    interpolate,
    h1_semi_error,
    l2_error,
    mass_cond,
    scaled_mass_cond,
)
from .tet_grid import BoxDomain, _usable_cpus, build_uniform_mesh

MASS_COND_BOUND = 2.0 * (2.0 + np.sqrt(2.0))      # scaled mass-matrix bound
L2_ORDER_BAND = (1.8, 2.2)
H1_ORDER_BAND = (0.8, 1.2)
N_RATIO_BAND = (3.5, 4.5)
PCG_ITER_BAND = (36, 49)

BOX = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))   # bulk domain
SURFACE_FUNCTION = product_arctan_function()          # convergence's u
PCG_TOL = 1e-8                                        # PCG relative residual

QUALITY_COLUMNS = ["z_c", "phi_max_deg", "phi_min_deg", "count_below_1deg",
                   "n_vertices", "n_triangles", "max_dist", "max_normal_dev"]
CONDITIONING_COLUMNS = QUALITY_COLUMNS + ["dim_As", "cond_Ms", "cond_As_eff",
                                          "pcg_iters"]
CONVERGENCE_COLUMNS = ["h", "N", "l2_error", "h1_error", "l2_order",
                       "h1_order", "n_ratio"]
MASSBOUND_COLUMNS = ["h", "N", "cond_M", "cond_Ms", "bound", "within_bound"]
REFMATRIX_COLUMNS = ["precond", "iterations", "relres", "converged"]

ZC_TABLE = [0.03, 0.02, 0.008, 0.002, 0.0005, 0.00025, 0.00005, 0.0]
H_TABLE = [0.5, 0.25, 0.125, 0.0625]
EXPORT_FORMATS = ("obj", "vtk", "mm")                 # extract --export

class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2.

    Exit code 2 is reserved for acceptance-band violations.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # A number or number list that starts with "-", such as -1e-3 or
        # -1e-3,0, is a value; argparse itself takes only plain decimals
        # such as -0.001 for one, and anything else for an option.
        try:
            _parse_floats(arg_string, "value")
        except argparse.ArgumentTypeError:
            return super()._parse_optional(arg_string)
        return None


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return values


def _parse_exports(text: str) -> list[str]:
    items = [v.strip() for v in text.split(",") if v.strip() != ""]
    for item in items:
        if item not in EXPORT_FORMATS:
            raise argparse.ArgumentTypeError(
                f"unknown export format {item!r} "
                f"(choose from {', '.join(EXPORT_FORMATS)})"
            )
    return items


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    if "h" in names:
        p.add_argument("--h", type=float, default=0.125,
                       help="mesh size (box edge / h must be integer)")
    if "h-list" in names:
        p.add_argument("--h-list", type=lambda s: _parse_floats(s, "h"),
                       default=list(H_TABLE), metavar="H1,H2,...",
                       help="mesh sizes, coarse to fine")
    if "zc" in names:
        p.add_argument("--zc", type=float, default=0.0,
                       help="z-shift of the sphere center")
    if "zc-list" in names:
        p.add_argument("--zc-list", type=lambda s: _parse_floats(s, "z_c"),
                       default=list(ZC_TABLE), metavar="Z1,Z2,...",
                       help="sphere-center z-shifts")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for manufactured right-hand sides")
    if "out" in names:
        p.add_argument("--out", default="surf-out",
                       help="output directory (created if missing)")
    if "export" in names:
        p.add_argument("--export", default=[], metavar="FMT[,FMT]",
                       type=_parse_exports,
                       help=f"extra exports: {', '.join(EXPORT_FORMATS)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract the zero level set of a "
                       "sphere field and report surface quality")
    _add_flags(p, "h", "zc", "out", "export")

    p = sub.add_parser("convergence", help="interpolation-error sweep "
                       "over mesh sizes")
    _add_flags(p, "h-list", "zc", "out")

    p = sub.add_parser("conditioning", help="angle and conditioning table "
                       "over sphere shifts at fixed h")
    _add_flags(p, "h", "zc-list", "seed", "out")
    p.set_defaults(h=0.0625)

    p = sub.add_parser("refmatrix", help="PCG iteration counts on the "
                       "block-tridiagonal reference matrix")
    _add_flags(p, "seed", "out")
    p.add_argument("--blocks", type=int, default=120,
                   help="number of block rows")
    p.add_argument("--block-size", type=int, default=120,
                   help="dimension of each block")

    p = sub.add_parser("massbound", help="mass-matrix conditioning sweep")
    _add_flags(p, "h-list", "zc", "out")

    return parser


def _sphere_surface(h: float, zc: float):
    """Mesh the box, interpolate the sphere level set, extract the surface."""
    mesh = build_uniform_mesh(BOX, h)
    spec = SphereLevelSet(center=(0.0, 0.0, zc))
    field = snap_small_values(interpolate_nodal(spec, mesh))
    surface = extract_surface(mesh, field)
    if surface.n_triangles == 0:
        raise ValueError("the level set does not cut the mesh (empty surface)")
    return spec, surface


def _quality_row(zc: float, report) -> list:
    return [zc, report.phi_max_deg, report.phi_min_deg,
            report.count_below_1deg, report.n_vertices, report.n_triangles,
            report.max_dist, report.max_normal_dev]


def _extract_part(args: argparse.Namespace, spec, surface, part: str):
    """One part of ``extract``: "report" returns the quality report and
    writes the OBJ and VTK exports; "matrices" writes the two scaled
    Matrix Market files itself, as returning their text would copy it
    into this process, and returns None."""
    out = args.out
    if part == "matrices":
        Ms, _ = diag_scale(assemble_mass(surface))
        As, _ = diag_scale(assemble_stiffness(surface))
        lsio.write_matrix_market(os.path.join(out, "mass_scaled.mtx"), Ms)
        lsio.write_matrix_market(os.path.join(out, "stiffness_scaled.mtx"), As)
        return None
    report = quality_report(surface, spec)
    obj = os.path.join(out, "surface.obj") if "obj" in args.export else None
    vtk = os.path.join(out, "surface.vtk") if "vtk" in args.export else None
    if obj and vtk:
        # one pass formats each vertex coordinate once for both files
        lsio._write_surface(surface.vertices, surface.triangles, obj, vtk)
    elif obj:
        lsio.write_obj(obj, surface.vertices, surface.triangles)
    elif vtk:
        lsio.write_vtk_surface(vtk, surface.vertices, surface.triangles)
    return report


def cmd_extract(args: argparse.Namespace) -> int:
    out = args.out
    spec, surface = _sphere_surface(args.h, args.zc)
    parts = ["report", "matrices"] if "mm" in args.export else ["report"]
    report = _map_rows(partial(_extract_part, args, spec, surface), parts)[0]
    lsio.write_json(os.path.join(out, "quality.json"), report.as_dict())
    lsio.write_csv(os.path.join(out, "quality.csv"), QUALITY_COLUMNS,
                   [_quality_row(args.zc, report)])
    print(f"extracted {surface.n_triangles} triangles / "
          f"{surface.n_vertices} vertices; "
          f"phi_max = {report.phi_max_deg:.2f} deg; outputs in {out}")
    return 0


def _order(err_coarse: float, err_fine: float,
           h_coarse: float, h_fine: float) -> float:
    return float(np.log(err_coarse / err_fine) / np.log(h_coarse / h_fine))


def _in_band(value: float, band: tuple) -> bool:
    return band[0] <= value <= band[1]


def cmd_convergence(args: argparse.Namespace) -> int:
    out = args.out
    hs = sorted(args.h_list, reverse=True)
    if len(hs) < 3:
        raise ValueError("convergence needs at least 3 mesh sizes")
    if len(set(hs)) < len(hs):
        raise ValueError("convergence needs distinct mesh sizes")
    rows = []
    results = []
    for h in hs:
        spec, surface = _sphere_surface(h, args.zc)
        u = spec.extend(SURFACE_FUNCTION)
        coeffs = interpolate(u, surface)
        e2 = l2_error(u, surface, coeffs)
        e1 = h1_semi_error(u, surface, coeffs)
        results.append((h, surface.n_vertices, e2, e1))
    for i, (h, n, e2, e1) in enumerate(results):
        if i == 0:
            rows.append([h, n, e2, e1, "", "", ""])
        else:
            hp, npp, e2p, e1p = results[i - 1]
            rows.append([h, n, e2, e1, _order(e2p, e2, hp, h),
                         _order(e1p, e1, hp, h), n / npp])
    lsio.write_csv(os.path.join(out, "convergence.csv"),
                   CONVERGENCE_COLUMNS, rows)
    l2_order, h1_order, n_ratio = rows[-1][4], rows[-1][5], rows[-1][6]
    ok = (_in_band(l2_order, L2_ORDER_BAND)
          and _in_band(h1_order, H1_ORDER_BAND)
          and _in_band(n_ratio, N_RATIO_BAND))
    print(f"finest-pair orders: L2 = {l2_order:.3f} "
          f"(band {list(L2_ORDER_BAND)}), H1 = {h1_order:.3f} "
          f"(band {list(H1_ORDER_BAND)}), N ratio = {n_ratio:.2f} "
          f"(band {list(N_RATIO_BAND)}) -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


# A worker's (fn, items) of _map_rows, set by the pool's initializer in
# the worker alone.
_worker_rows = None


def _set_worker_rows(fn, items: list) -> None:
    global _worker_rows
    _worker_rows = fn, items


def _run_worker_row(i: int):
    fn, items = _worker_rows
    return fn(items[i])


def _map_rows(fn, items: list) -> list:
    """``[fn(item) for item in items]``, in forked workers where that pays.

    In this process for one item, one usable CPU or no ``fork`` start
    method; otherwise in a pool of min(items, usable CPUs) forked processes.
    ``fn`` and ``items`` reach the workers through the fork, as the pool's
    initializer arguments, and are never pickled; only the item indices and
    the results are.  The pool is shut down, its queued items cancelled and
    its workers joined before this returns or raises; a worker that dies
    ends as a ``ChildProcessError``.
    """
    workers = min(len(items), _usable_cpus())
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # fork, not spawn: a worker starts with numpy and scipy imported and
    # with the caller's module state; no thread of this command runs now,
    # as _map_blocks joins its threads before it returns
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_rows,
                               initargs=(fn, items))
    try:
        return list(pool.map(_run_worker_row, range(len(items))))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _conditioning_row(h: float, seed: int, zc: float):
    """One ``conditioning`` row, a function of (h, seed, z_c) alone.

    Returns the row, its notes (an ILU(0)-PCG failure that Jacobi-PCG
    replaced) and its failures (a cond_As_eff or PCG solve that did not
    converge), each a list of stderr lines; it writes no file.  The PCG
    right-hand side is A^s v for a unit v drawn from a fresh
    ``default_rng(seed)``, so a row is the same wherever it stands in the
    list.
    """
    rng = np.random.default_rng(seed)
    spec, surface = _sphere_surface(h, zc)
    report = quality_report(surface, spec)
    cond_ms = scaled_mass_cond(assemble_mass(surface)).cond
    As, d = diag_scale(assemble_stiffness(surface))
    kernel = np.sqrt(d)
    kernel /= _norm(kernel)
    notes, failures = [], []
    try:
        cond_as = effective_cond(As, kernel).cond
    except EigNonConvergence:
        cond_as = float("nan")
        failures.append(f"cond_As_eff did not converge at z_c = "
                        f"{lsio.fmt(zc)} (written as nan)")
    v = rng.standard_normal(As.shape[0])
    v /= _norm(v)
    # Plain ILU(0) for the (semidefinite) surface systems: the
    # row-compensated variant can turn singular row sums into
    # non-positive pivots.  Jacobi is the fallback of last resort.
    try:
        _, stats = pcg(As, As @ v, tol=PCG_TOL, precond="ilu0")
    except (ZeroPivotError, np.linalg.LinAlgError) as exc:
        notes.append(f"ILU(0)-PCG failed at z_c = {lsio.fmt(zc)} "
                     f"({type(exc).__name__}: {exc}); "
                     f"pcg_iters is from Jacobi-PCG")
        _, stats = pcg(As, As @ v, tol=PCG_TOL, precond="jacobi")
    if not stats.converged:
        failures.append(f"PCG did not converge at z_c = {lsio.fmt(zc)} "
                        f"(pcg_iters written as {stats.iterations})")
    row = (_quality_row(zc, report)
           + [As.shape[0], cond_ms, cond_as, stats.iterations])
    return row, notes, failures


def cmd_conditioning(args: argparse.Namespace) -> int:
    rows, notes, failures = zip(*_map_rows(
        partial(_conditioning_row, args.h, args.seed), args.zc_list))
    for line in sum(notes, []):
        print(line, file=sys.stderr)
    path = os.path.join(args.out, "conditioning.csv")
    lsio.write_csv(path, CONDITIONING_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {path}")
    failures = sum(failures, [])
    for line in failures:
        print(line, file=sys.stderr)
    return 2 if failures else 0


def _refmatrix_row(A, b, precond: str):
    """One ``refmatrix`` row: the PCG statistics of one preconditioner."""
    return pcg(A, b, tol=PCG_TOL, precond=precond)[1]


def cmd_refmatrix(args: argparse.Namespace) -> int:
    out = args.out
    A = build_reference_matrix(args.blocks, args.block_size)
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(A.shape[0])
    v /= _norm(v)
    b = A @ v
    preconds = ["none", "jacobi", "ilu0", "milu0"]
    stats = _map_rows(partial(_refmatrix_row, A, b), preconds)
    counts = {p: s.iterations for p, s in zip(preconds, stats)}
    rows = [[p, s.iterations, s.relres, s.converged]
            for p, s in zip(preconds, stats)]
    lsio.write_csv(os.path.join(out, "refmatrix.csv"),
                   REFMATRIX_COLUMNS, rows)
    nnz_per_row = np.diff(A.indptr)
    modal = int(np.bincount(nnz_per_row).argmax())
    in_band = PCG_ITER_BAND[0] <= counts["milu0"] <= PCG_ITER_BAND[1]
    lsio.write_json(os.path.join(out, "refmatrix.json"), {
        "dim": int(A.shape[0]),
        "nnz": int(A.nnz),
        "modal_row_nnz": modal,
        "iterations": counts,
        "iteration_band": list(PCG_ITER_BAND),
        "in_band": bool(in_band),
    })
    print(f"dim = {A.shape[0]}, modal row nnz = {modal}; "
          f"PCG iterations: " + ", ".join(
              f"{k} = {counts[k]}" for k in preconds)
          + f"; milu0 in band {list(PCG_ITER_BAND)}: {in_band}")
    return 0


def cmd_massbound(args: argparse.Namespace) -> int:
    out = args.out
    rows = []
    all_within = True
    for h in sorted(args.h_list, reverse=True):
        _, surface = _sphere_surface(h, args.zc)
        M = assemble_mass(surface)
        cond_m = mass_cond(M).cond
        cond_ms = scaled_mass_cond(M).cond
        within = bool(cond_ms <= MASS_COND_BOUND)
        all_within = all_within and within
        rows.append([h, surface.n_vertices, cond_m, cond_ms,
                     MASS_COND_BOUND, within])
    lsio.write_csv(os.path.join(out, "massbound.csv"),
                   MASSBOUND_COLUMNS, rows)
    print(f"cond(M^s) <= {MASS_COND_BOUND:.4f} on all {len(rows)} levels: "
          f"{'PASS' if all_within else 'FAIL'}")
    return 0 if all_within else 2


_COMMANDS = {
    "extract": cmd_extract,
    "convergence": cmd_convergence,
    "conditioning": cmd_conditioning,
    "refmatrix": cmd_refmatrix,
    "massbound": cmd_massbound,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        lsio.write_json(os.path.join(args.out, "config.json"), vars(args))
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError, EigNonConvergence,
            ZeroPivotError) as exc:
        # np.linalg.LinAlgError is a ValueError, so it ends here too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # glibc returns heap pages only from its top; trim, so that a block a
        # command leaves high up cannot keep the arrays it freed resident.
        with contextlib.suppress(AttributeError, OSError, TypeError):
            ctypes.CDLL(None).malloc_trim(0)


if __name__ == "__main__":
    raise SystemExit(main())
