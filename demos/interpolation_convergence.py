"""Interpolation error of a P1 field on extracted sphere surfaces.

The smooth test function u = (1/pi) x1 x2 atan(2 x3) is taken through
its closest-point extension ``spec.extend(u)``, which lifts each point to
the exact sphere.  The extension is interpolated at the surface vertices,
and errors against it are integrated with a degree-4 quadrature rule.
Despite the arbitrarily thin triangles the errors converge at the
optimal rates: L2 ~ h^2 and the H1 seminorm ~ h.  The finest-pair rates must lie in the
bands that ``surf convergence`` checks.
"""
import numpy as np

from levelsurf import (
    BoxDomain,
    SphereLevelSet,
    build_uniform_mesh,
    extract_surface,
    h1_semi_error,
    interpolate,
    interpolate_nodal,
    l2_error,
    product_arctan_function,
    snap_small_values,
)
from levelsurf.cli import H1_ORDER_BAND, L2_ORDER_BAND

box = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
u = spec.extend(product_arctan_function())

rows = []
for h in [0.5, 0.25, 0.125, 0.0625]:
    mesh = build_uniform_mesh(box, h)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    surf = extract_surface(mesh, field)
    coeffs = interpolate(u, surf)
    rows.append((h, surf.n_vertices,
                 l2_error(u, surf, coeffs),
                 h1_semi_error(u, surf, coeffs)))

print("---------------------------------------------------------------")
print(f"{'h':>8} {'N':>7} {'L2 error':>12} {'rate':>6} "
      f"{'H1 error':>12} {'rate':>6}")
for j, (h, n, l2, h1) in enumerate(rows):
    if j == 0:
        print(f"{h:8.4f} {n:7d} {l2:12.4e} {'':>6} {h1:12.4e}")
    else:
        hp, _, l2p, h1p = rows[j - 1]
        r2 = np.log(l2p / l2) / np.log(hp / h)
        r1 = np.log(h1p / h1) / np.log(hp / h)
        print(f"{h:8.4f} {n:7d} {l2:12.4e} {r2:6.3f} {h1:12.4e} {r1:6.3f}")
print("---------------------------------------------------------------")
print("N quadruples per halving; L2 rate -> 2, H1 rate -> 1")
assert L2_ORDER_BAND[0] <= r2 <= L2_ORDER_BAND[1], f"L2 rate {r2:.3f}"
assert H1_ORDER_BAND[0] <= r1 <= H1_ORDER_BAND[1], f"H1 rate {r1:.3f}"
