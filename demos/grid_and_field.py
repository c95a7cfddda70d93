"""Build the uniform tetrahedral grid and sample a level set on it.

Every cube of an n x n x n grid over the box is cut into six tetrahedra
sharing the cube's main diagonal, so all tets are congruent up to
reflection and the mesh quality is independent of h.  A sphere level set
is then sampled at the nodes; nodal values within snapping distance of
zero are nudged to a positive epsilon so the zero level set never passes
exactly through a node.
"""
import numpy as np

from levelsurf import (
    BoxDomain,
    SphereLevelSet,
    build_uniform_mesh,
    interpolate_nodal,
    min_angle_theta,
    shape_regularity,
    snap_small_values,
    tet_volumes,
)

box = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
KUHN_ALPHA = np.sqrt(3.0) * (np.sqrt(2.0) + 1.0)

print(f"{'h':>8} {'nodes':>8} {'tets':>8} {'vol err':>10} "
      f"{'alpha':>8} {'theta_min':>10}")
for h in [0.5, 0.25, 0.125]:
    mesh = build_uniform_mesh(box, h)
    vol_err = abs(tet_volumes(mesh).sum() - box.volume) / box.volume
    alpha, theta = shape_regularity(mesh), np.degrees(min_angle_theta(mesh))
    print(f"{h:8.4f} {mesh.n_nodes:8d} {mesh.n_tets:8d} {vol_err:10.2e} "
          f"{alpha:8.4f} {theta:9.4f}°")
    # alpha = (enclosing-ball diameter) / (inscribed-ball diameter) is the
    # same for every Kuhn tet: sqrt(3) (sqrt(2) + 1); the regular
    # tetrahedron would give 3.
    assert vol_err < 1e-14, f"volume error {vol_err:.2e} at h = {h}"
    assert np.isclose(alpha, KUHN_ALPHA, rtol=1e-12, atol=0), f"alpha {alpha!r}"
    assert np.isclose(theta, 30.0, rtol=1e-12, atol=0), f"theta {theta!r}°"

print(f"\nKuhn alpha exact: {KUHN_ALPHA:.10f}")

# Sample the unit sphere on the finest grid and snap exact zeros.
mesh = build_uniform_mesh(box, 0.125)
spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
field = interpolate_nodal(spec, mesh)
n_zero = int(np.count_nonzero(field.values == 0.0))
snapped = snap_small_values(field)
n_zero_after = int(np.count_nonzero(snapped.values == 0.0))
print(f"\nnodal field: {mesh.n_nodes} values, {n_zero} exact zeros before "
      f"snapping, {n_zero_after} after")
assert n_zero_after == 0, f"{n_zero_after} exact zeros after snapping"
print(f"sign split: {int(np.count_nonzero(snapped.values < 0))} negative "
      f"(inside), {int(np.count_nonzero(snapped.values > 0))} positive")
