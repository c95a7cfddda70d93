"""Command-line driver for the surface-extraction experiments.

Subcommands
-----------
extract       build a mesh, extract the zero level set, report quality
convergence   interpolation-error sweep over a list of mesh sizes
conditioning  angle/conditioning table over a list of sphere shifts z_c
refmatrix     PCG iteration counts on the block-tridiagonal reference matrix
massbound     mass-matrix conditioning sweep (scaled vs unscaled)

Exit codes: 0 success, 2 acceptance-band violation or a conditioning row
whose effective condition number did not converge, 1 operational error
(including a solver failure outside that row).
Every run writes ``config.json`` (the resolved configuration) next to its
outputs; reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as lsio
from .level_set import (
    SphereLevelSet,
    constant_function,
    coordinate_function,
    interpolate_nodal,
    product_arctan_function,
    snap_small_values,
)
from .mesh_quality import quality_report
from .sparse_linalg import (
    EigNonConvergence,
    ZeroPivotError,
    build_reference_matrix,
    effective_cond,
    pcg,
    spd_cond,
)
from .surface_extract import extract_surface
from .surface_fem import (
    assemble_mass,
    assemble_stiffness,
    diag_scale,
    interpolate,
    h1_semi_error,
    l2_error,
)
from .tet_grid import BoxDomain, build_uniform_mesh

MASS_COND_BOUND = 2.0 * (2.0 + np.sqrt(2.0))      # scaled mass-matrix bound
L2_ORDER_BAND = (1.8, 2.2)
H1_ORDER_BAND = (0.8, 1.2)
N_RATIO_BAND = (3.5, 4.5)
PCG_ITER_BAND = (36, 49)
EXACT_FIT = 1e-10                                  # error below this: exact fit

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

_FUNCTIONS = {
    "product-arctan": product_arctan_function,
    "coordinate": coordinate_function,
    "constant": constant_function,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2.

    Exit code 2 is reserved for acceptance-band violations.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return values


def _parse_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance: {text!r}")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}"
        )
    return value


def _parse_box(text: str) -> BoxDomain:
    values = _parse_floats(text, "box")
    if len(values) != 6:
        raise argparse.ArgumentTypeError(
            "box needs 6 numbers: xmin,ymin,zmin,xmax,ymax,zmax"
        )
    return BoxDomain(tuple(values[:3]), tuple(values[3:]))


def _parse_exports(text: str) -> list[str]:
    items = [v.strip() for v in text.split(",") if v.strip() != ""]
    for item in items:
        if item not in ("obj", "vtk", "mm"):
            raise argparse.ArgumentTypeError(
                f"unknown export format {item!r} (choose from obj, vtk, mm)"
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
    if "radius" in names:
        p.add_argument("--radius", type=float, default=1.0,
                       help="sphere radius")
    if "box" in names:
        p.add_argument("--box", type=_parse_box,
                       default=BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
                       metavar="XMIN,YMIN,ZMIN,XMAX,YMAX,ZMAX",
                       help="bulk domain (default [-2,2]^3)")
    if "tol" in names:
        p.add_argument("--tol", type=_parse_tol, default=1e-8,
                       help="PCG relative-residual tolerance")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for manufactured right-hand sides")
    if "out" in names:
        p.add_argument("--out", default="surf-out",
                       help="output directory (created if missing)")
    if "export" in names:
        p.add_argument("--export", type=_parse_exports, default=[],
                       metavar="FMT[,FMT]",
                       help="extra exports: obj, vtk, mm")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract the zero level set of a "
                       "sphere field and report surface quality")
    _add_flags(p, "h", "zc", "radius", "box", "out", "export")

    p = sub.add_parser("convergence", help="interpolation-error sweep "
                       "over mesh sizes")
    _add_flags(p, "h-list", "zc", "radius", "box", "out")
    p.add_argument("--function", choices=sorted(_FUNCTIONS),
                   default="product-arctan",
                   help="surface function to interpolate")

    p = sub.add_parser("conditioning", help="angle and conditioning table "
                       "over sphere shifts at fixed h")
    _add_flags(p, "h", "zc-list", "radius", "box", "tol", "seed", "out",
               "export")
    p.set_defaults(h=0.0625)

    p = sub.add_parser("refmatrix", help="PCG iteration counts on the "
                       "block-tridiagonal reference matrix")
    _add_flags(p, "tol", "seed", "out", "export")
    p.add_argument("--blocks", type=int, default=120,
                   help="number of block rows")
    p.add_argument("--block-size", type=int, default=120,
                   help="dimension of each block")

    p = sub.add_parser("massbound", help="mass-matrix conditioning sweep")
    _add_flags(p, "h-list", "zc", "radius", "box", "out")

    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, BoxDomain):
            value = {"lo": list(value.lo), "hi": list(value.hi)}
        config[key] = value
    return config


def _prepare_out(args: argparse.Namespace) -> str:
    out = args.out
    os.makedirs(out, exist_ok=True)
    lsio.write_json(os.path.join(out, "config.json"), _config_dict(args))
    return out


def _sphere_surface(box: BoxDomain, h: float, zc: float, radius: float):
    """Mesh the box, interpolate the sphere level set, extract the surface."""
    mesh = build_uniform_mesh(box, h)
    spec = SphereLevelSet(center=(0.0, 0.0, zc), radius=radius)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    return spec, extract_surface(mesh, field)


def _quality_row(zc: float, report) -> list:
    return [zc, report.phi_max_deg, report.phi_min_deg,
            report.count_below_1deg, report.n_vertices, report.n_triangles,
            report.max_dist, report.max_normal_dev]


def cmd_extract(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    spec, surface = _sphere_surface(args.box, args.h, args.zc, args.radius)
    if surface.n_triangles == 0:
        print("error: the level set does not cut the mesh "
              "(empty surface)", file=sys.stderr)
        return 1
    report = quality_report(surface, spec)
    lsio.write_json(os.path.join(out, "quality.json"), report.as_dict())
    lsio.write_csv(os.path.join(out, "quality.csv"), QUALITY_COLUMNS,
                   [_quality_row(args.zc, report)])
    if "obj" in args.export:
        lsio.write_obj(os.path.join(out, "surface.obj"),
                       surface.vertices, surface.triangles)
    if "vtk" in args.export:
        lsio.write_vtk_surface(os.path.join(out, "surface.vtk"),
                               surface.vertices, surface.triangles)
    if "mm" in args.export:
        Ms, _ = diag_scale(assemble_mass(surface))
        As, _ = diag_scale(assemble_stiffness(surface))
        lsio.write_matrix_market(os.path.join(out, "mass_scaled.mtx"), Ms)
        lsio.write_matrix_market(os.path.join(out, "stiffness_scaled.mtx"), As)
    print(f"extracted {surface.n_triangles} triangles / "
          f"{surface.n_vertices} vertices; "
          f"phi_max = {report.phi_max_deg:.2f} deg; outputs in {out}")
    return 0


def _order(err_coarse: float, err_fine: float,
           h_coarse: float, h_fine: float) -> float:
    if err_coarse < EXACT_FIT and err_fine < EXACT_FIT:
        return float("inf")
    if err_fine == 0.0:
        return float("inf")
    return float(np.log(err_coarse / err_fine) / np.log(h_coarse / h_fine))


def _in_band(value: float, band: tuple) -> bool:
    if value == float("inf"):
        return True                      # exact fit beats any band
    return band[0] <= value <= band[1]


def cmd_convergence(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    hs = sorted(args.h_list, reverse=True)
    if len(hs) < 3:
        print("error: convergence needs at least 3 mesh sizes",
              file=sys.stderr)
        return 1
    u = _FUNCTIONS[args.function]()
    rows = []
    results = []
    for h in hs:
        spec, surface = _sphere_surface(args.box, h, args.zc, args.radius)
        coeffs = interpolate(u, spec, surface)
        e2 = l2_error(u, spec, surface, coeffs)
        e1 = h1_semi_error(u, spec, surface, coeffs)
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


def cmd_conditioning(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    unconverged = []
    for zc in args.zc_list:
        spec, surface = _sphere_surface(args.box, args.h, zc, args.radius)
        report = quality_report(surface, spec)
        Ms, _ = diag_scale(assemble_mass(surface))
        A = assemble_stiffness(surface)
        As, d = diag_scale(A)
        kernel = np.sqrt(d)
        kernel /= np.linalg.norm(kernel)
        cond_ms = spd_cond(Ms).cond
        try:
            cond_as = effective_cond(As, kernel).cond
        except EigNonConvergence:
            cond_as = float("nan")
            unconverged.append(zc)
        v = rng.standard_normal(As.shape[0])
        v /= np.linalg.norm(v)
        # Plain ILU(0) for the (semidefinite) surface systems: the
        # row-compensated variant can turn singular row sums into
        # non-positive pivots.  Jacobi is the fallback of last resort.
        try:
            _, stats = pcg(As, As @ v, tol=args.tol, precond="ilu0")
        except (ZeroPivotError, np.linalg.LinAlgError) as exc:
            print(f"ILU(0)-PCG failed at z_c = {lsio.fmt(zc)} "
                  f"({type(exc).__name__}: {exc}); "
                  f"pcg_iters is from Jacobi-PCG", file=sys.stderr)
            _, stats = pcg(As, As @ v, tol=args.tol, precond="jacobi")
        rows.append(_quality_row(zc, report)
                    + [As.shape[0], cond_ms, cond_as, stats.iterations])
        if "mm" in args.export:
            tag = lsio.fmt(zc)
            lsio.write_matrix_market(
                os.path.join(out, f"stiffness_scaled_zc{tag}.mtx"), As)
    lsio.write_csv(os.path.join(out, "conditioning.csv"),
                   CONDITIONING_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {os.path.join(out, 'conditioning.csv')}")
    for zc in unconverged:
        print(f"cond_As_eff did not converge at z_c = {lsio.fmt(zc)} "
              f"(written as nan)", file=sys.stderr)
    return 2 if unconverged else 0


def cmd_refmatrix(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    A = build_reference_matrix(args.blocks, args.block_size)
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    b = A @ v
    rows = []
    counts = {}
    for precond in ["none", "jacobi", "ilu0", "milu0"]:
        _, stats = pcg(A, b, tol=args.tol, precond=precond)
        counts[precond] = stats.iterations
        rows.append([precond, stats.iterations, stats.relres,
                     stats.converged])
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
    if "mm" in args.export:
        lsio.write_matrix_market(os.path.join(out, "refmatrix.mtx"), A)
    print(f"dim = {A.shape[0]}, modal row nnz = {modal}; "
          f"PCG iterations: " + ", ".join(
              f"{k} = {counts[k]}" for k in ["none", "jacobi", "ilu0", "milu0"])
          + f"; milu0 in band {list(PCG_ITER_BAND)}: {in_band}")
    return 0


def cmd_massbound(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    rows = []
    all_within = True
    for h in sorted(args.h_list, reverse=True):
        _, surface = _sphere_surface(args.box, h, args.zc, args.radius)
        M = assemble_mass(surface)
        Ms, _ = diag_scale(M)
        cond_m = spd_cond(M).cond
        cond_ms = spd_cond(Ms).cond
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, EigNonConvergence, ZeroPivotError) as exc:
        # np.linalg.LinAlgError is a ValueError, so it ends here too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
