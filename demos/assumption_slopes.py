"""Measure how well extracted surfaces approximate the exact sphere.

Two geometric residuals drive the error analysis: the maximum distance
from surface vertices to the exact sphere (should fall like h^2) and the
maximum deviation between discrete and exact normals (should fall like
h).  Log-log slopes over a refinement sweep confirm both.
"""
import numpy as np

from levelsurf import (
    BoxDomain,
    SphereLevelSet,
    assumption_residuals,
    build_uniform_mesh,
    extract_surface,
    interpolate_nodal,
    snap_small_values,
)
from levelsurf.cli import H1_ORDER_BAND, L2_ORDER_BAND

box = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)

levels = []
for h in [0.5, 0.25, 0.125, 0.0625]:
    mesh = build_uniform_mesh(box, h)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    levels.append((h, extract_surface(mesh, field)))

res = assumption_residuals(levels, spec)
print(f"{'h':>8} {'max_dist':>11} {'dist/h^2':>9} {'max_ndev':>11} "
      f"{'ndev/h':>7}")
for h, dist, ndev in res.rows:
    print(f"{h:8.4f} {dist:11.3e} {dist / h**2:9.3f} {ndev:11.3e} "
          f"{ndev / h:7.3f}")
print(f"\nlog-log slopes: distance {res.slope_dist:.3f} (expect ~2), "
      f"normals {res.slope_normal:.3f} (expect ~1)")
assert L2_ORDER_BAND[0] <= res.slope_dist <= L2_ORDER_BAND[1], \
    f"distance slope {res.slope_dist:.3f}"
assert H1_ORDER_BAND[0] <= res.slope_normal <= H1_ORDER_BAND[1], \
    f"normal slope {res.slope_normal:.3f}"
