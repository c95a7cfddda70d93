"""Conditioning of the scaled surface matrices, and a solver benchmark.

Diagonal scaling A -> D^(-1/2) A D^(-1/2) absorbs the arbitrarily small
vertex areas that thin cut triangles produce.  For the mass matrix this
provably caps the condition number at 2 (2 + sqrt(2)) ~ 6.83 no matter
how degenerate the triangles get; its largest eigenvalue is exactly 2,
so only the smallest is estimated, and the estimate stays at or below 4.
For the stiffness matrix no such bound
exists, and its effective condition number (kernel of constants deflated)
blows up as the surface approaches grid nodes.  The second part times
preconditioned CG on a block-tridiagonal reference matrix.
"""
import numpy as np

from levelsurf import (
    BoxDomain,
    SphereLevelSet,
    assemble_mass,
    assemble_stiffness,
    build_reference_matrix,
    build_uniform_mesh,
    diag_scale,
    effective_cond,
    extract_surface,
    interpolate_nodal,
    pcg,
    scaled_mass_cond,
    snap_small_values,
)
from levelsurf.cli import PCG_ITER_BAND

H = 0.125
box = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
mesh = build_uniform_mesh(box, H)

print(f"grid h = {H}; scaled mass bound 2(2+sqrt(2)) = "
      f"{2.0 * (2.0 + np.sqrt(2.0)):.4f}\n")
print(f"{'z_c':>10} {'N':>6} {'cond Ms':>9} {'cond As (eff)':>14}")
conds = {}
for zc in [0.03, 0.002, 0.00005]:
    spec = SphereLevelSet(center=(0.0, 0.0, zc), radius=1.0)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    surf = extract_surface(mesh, field)
    cond_ms = scaled_mass_cond(assemble_mass(surf)).cond
    As, d = diag_scale(assemble_stiffness(surf))
    cond_as = effective_cond(As, np.sqrt(d)).cond
    conds[zc] = cond_as
    print(f"{zc:10.5f} {surf.n_vertices:6d} {cond_ms:9.4f} "
          f"{cond_as:14.4e}")
    assert cond_ms <= 4.0, f"cond(Ms) {cond_ms:.4f} at z_c = {zc}"
blow_up = conds[0.00005] / conds[0.03]
print(f"\nstiffness blow-up factor {blow_up:.0f}x; "
      f"mass conditioning does not move")
assert blow_up >= 100.0, f"stiffness blow-up only {blow_up:.0f}x"

# PCG on the reference matrix: 14400 unknowns, 7-point block stencil.
A = build_reference_matrix()
rng = np.random.default_rng(0)
v = rng.standard_normal(A.shape[0])
b = A @ (v / np.linalg.norm(v))
print(f"\nreference matrix {A.shape[0]} x {A.shape[1]}, nnz {A.nnz}")
print(f"{'preconditioner':>15} {'iterations':>11} {'rel residual':>13}")
iters = {}
for precond in ["none", "jacobi", "ilu0", "milu0"]:
    x, stats = pcg(A, b, tol=1e-8, precond=precond)
    iters[precond] = stats.iterations
    print(f"{precond:>15} {stats.iterations:11d} {stats.relres:13.2e}")
print("\nrow-sum-compensated ILU(0) (milu0) roughly halves the plain "
      "ILU(0) count")
assert PCG_ITER_BAND[0] <= iters["milu0"] <= PCG_ITER_BAND[1], \
    f"milu0 took {iters['milu0']} iterations"
assert iters["milu0"] < iters["ilu0"], f"iterations {iters}"
