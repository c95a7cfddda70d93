"""End-to-end acceptance checks, one test per criterion.

Running ``pytest tests/test_acceptance.py -v`` prints one pass/fail line
per criterion, then three checks of the degenerate regime: interpolation
errors that do not depend on z_c, lambda_2(A^s) proportional to
delta / h, and the discrete Laplace-Beltrami spectrum.  The two expensive
surface sweeps (the z_c sweep at the finest grid and the mesh-size sweep)
are built once per module and shared.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from levelsurf.cli import L2_ORDER_BAND, main
from levelsurf.level_set import (
    SphereLevelSet,
    interpolate_nodal,
    product_arctan_function,
    snap_small_values,
)
from levelsurf.mesh_quality import assumption_residuals, quality_report
from levelsurf.sparse_linalg import (
    build_reference_matrix,
    effective_cond,
    eig_extreme,
    pcg,
)
from levelsurf.surface_extract import SurfaceMesh, extract_surface
from levelsurf.surface_fem import (
    assemble_mass,
    assemble_stiffness,
    diag_scale,
    h1_semi_error,
    interpolate,
    l2_error,
    mass_cond,
    scaled_mass_cond,
)
from levelsurf.tet_grid import BoxDomain, build_uniform_mesh

from conftest import vertex_support_areas

ZC_SWEEP = [0.03, 0.02, 0.008, 0.002, 0.0005, 0.00025, 0.00005, 0.0]
H_SWEEP = [0.5, 0.25, 0.125, 0.0625]
BOX = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
MASS_BOUND = 6.8284                      # 2 (2 + sqrt(2)), rounded down
PCG_BAND = (36, 49)


def _surface(mesh, zc):
    spec = SphereLevelSet(center=(0.0, 0.0, zc))
    field = snap_small_values(interpolate_nodal(spec, mesh))
    return spec, extract_surface(mesh, field)


@pytest.fixture(scope="module")
def zc_sweep():
    """(z_c, spec, surface) for the full shift sweep at h = 1/16."""
    t0 = time.perf_counter()
    mesh = build_uniform_mesh(BOX, 0.0625)
    surfaces = []
    for zc in ZC_SWEEP:
        spec, surf = _surface(mesh, zc)
        surfaces.append((zc, spec, surf))
    return {"surfaces": surfaces, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def h_sweep(zc_sweep):
    """(h, spec, surface) for z_c = 0 at h in {1/2, ..., 1/16}."""
    t0 = time.perf_counter()
    levels = []
    for h in H_SWEEP[:-1]:
        mesh = build_uniform_mesh(BOX, h)
        spec, surf = _surface(mesh, 0.0)
        levels.append((h, spec, surf))
    built = time.perf_counter() - t0
    for zc, spec, surf in zc_sweep["surfaces"]:
        if zc == 0.0:
            levels.append((H_SWEEP[-1], spec, surf))
    return {"levels": levels, "seconds": built}


def test_criterion_1_max_angle(zc_sweep):
    # Every surface in the z_c sweep keeps all inner angles below 160 deg.
    for zc, spec, surf in zc_sweep["surfaces"]:
        rep = quality_report(surf, spec)
        assert rep.phi_max_deg < 160.0, f"z_c={zc}: phi_max={rep.phi_max_deg}"


def test_criterion_2_mass_conditioning(zc_sweep, h_sweep):
    # cond(M^s) <= 2 (2 + sqrt(2)) on every surface of both sweeps.
    surfaces = [(f"z_c={zc}", s) for zc, _, s in zc_sweep["surfaces"]]
    surfaces += [(f"h={h}", s) for h, _, s in h_sweep["levels"][:-1]]
    for label, surf in surfaces:
        cond = scaled_mass_cond(assemble_mass(surf)).cond
        assert cond <= MASS_BOUND, f"{label}: cond(Ms)={cond}"


def test_criterion_3_interpolation_convergence(h_sweep, zc_sweep):
    # L2 order in [1.8, 2.2] and H1 order in [0.8, 1.2] between the two
    # finest levels; vertex count grows ~4x per halving; finishes in 5 min.
    t0 = time.perf_counter()
    results = []
    for h, spec, surf in h_sweep["levels"]:
        u = spec.extend(product_arctan_function())
        coeffs = interpolate(u, surf)
        results.append(
            (h, surf.n_vertices,
             l2_error(u, surf, coeffs),
             h1_semi_error(u, surf, coeffs))
        )
    (h2, n2, l2_c, h1_c), (h1_, n1, l2_f, h1_f) = results[-2], results[-1]
    l2_order = np.log(l2_c / l2_f) / np.log(h2 / h1_)
    h1_order = np.log(h1_c / h1_f) / np.log(h2 / h1_)
    assert 1.8 <= l2_order <= 2.2, f"L2 order {l2_order}"
    assert 0.8 <= h1_order <= 1.2, f"H1 order {h1_order}"
    # The growth band, like the orders, is an asymptotic statement: it is
    # checked on the finest pair (the coarsest pair sits at 4.56).
    assert 3.5 <= n1 / n2 <= 4.5, f"N ratio {n1 / n2}"
    elapsed = (time.perf_counter() - t0 + h_sweep["seconds"]
               + zc_sweep["seconds"])
    assert elapsed <= 300.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_assumption_slopes(h_sweep):
    # max |d| ~ h^2 and max |n - n_h| ~ h as log-log slopes over the sweep.
    spec = h_sweep["levels"][0][1]
    res = assumption_residuals(
        [(h, surf) for h, _, surf in h_sweep["levels"]], spec
    )
    assert res.slope_dist >= 1.8, f"distance slope {res.slope_dist}"
    assert res.slope_normal >= 0.8, f"normal slope {res.slope_normal}"


def test_criterion_5_stiffness_blowup(zc_sweep):
    # Effective cond(A^s) at z_c = 0.00005 is >= 100x the value at 0.03.
    conds = {}
    for zc, _, surf in zc_sweep["surfaces"]:
        if zc not in (0.03, 0.00005):
            continue
        As, d = diag_scale(assemble_stiffness(surf))
        conds[zc] = effective_cond(As, np.sqrt(d)).cond
    ratio = conds[0.00005] / conds[0.03]
    assert ratio >= 100.0, f"blow-up factor {ratio:.1f}"


def test_criterion_6_reference_matrix():
    # Dimension 14400, modal row-nnz 7, preconditioned CG in 36-49
    # iterations at tol 1e-8.  The row-sum-compensated ILU(0) lands in the
    # band; the uncompensated factorization needs ~67 and is checked for
    # convergence only.
    A = build_reference_matrix()
    assert A.shape == (14400, 14400)
    assert abs(A - A.T).max() == 0.0
    assert int(np.bincount(np.diff(A.indptr)).argmax()) == 7
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    b = A @ v
    _, stats = pcg(A, b, tol=1e-8, precond="milu0")
    assert stats.converged
    assert PCG_BAND[0] <= stats.iterations <= PCG_BAND[1], (
        f"milu0 iterations {stats.iterations}"
    )
    _, plain = pcg(A, b, tol=1e-8, precond="ilu0")
    assert plain.converged


def _rayleigh_quotient(A, v):
    """v'Av / v'v evaluated in np.longdouble.

    lambda_2 of the scaled stiffness matrix is about 3e-10 ||A||, so the
    dense solver's eigenvalue carries a relative error up to
    eps ||A|| / lambda_2 ~ 1e-6.  The Rayleigh quotient of its eigenvector
    is accurate to (eps ||A||)^2 / gap instead, provided A v is not
    rounded in double precision (x86-64 long double: 64-bit mantissa).
    """
    A = A.toarray().astype(np.longdouble)
    v = np.asarray(v, dtype=np.longdouble)
    return float(v @ (A @ v) / (v @ v))


def test_criterion_7_oracle_equivalence(sphere_h4):
    # Lanczos extremes match dense eigensolvers to 1e-6 relative on
    # matrices up to N = 2000; element matrices match independent oracles
    # to 1e-12.
    A_ref = build_reference_matrix(blocks=12, size=12)   # N = 1728
    w = np.linalg.eigvalsh(A_ref.toarray())
    npt.assert_allclose(eig_extreme(A_ref, "max"), w[-1], rtol=1e-6)
    npt.assert_allclose(eig_extreme(A_ref, "min"), w[0], rtol=1e-6)

    _, surf = sphere_h4
    M = assemble_mass(surf)
    Ms, _ = diag_scale(M)
    for A, est in ((M, mass_cond(M)), (Ms, scaled_mass_cond(M))):
        wm = np.linalg.eigvalsh(A.toarray())
        npt.assert_allclose(est.lambda_max, wm[-1], rtol=1e-6)
        npt.assert_allclose(est.lambda_min, wm[0], rtol=1e-6)

    As, d = diag_scale(assemble_stiffness(surf))
    wa, va = np.linalg.eigh(As.toarray())
    eff = effective_cond(As, np.sqrt(d))
    npt.assert_allclose(eff.lambda_max, wa[-1], rtol=1e-6)
    npt.assert_allclose(eff.lambda_min, _rayleigh_quotient(As, va[:, 1]),
                        rtol=1e-6)

    rng = np.random.default_rng(42)
    for _ in range(10):
        p = rng.standard_normal((3, 3))
        e0, e1 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * np.linalg.norm(np.cross(e0, e1))
        if area < 1e-2:
            continue
        tri = SurfaceMesh(p, np.array([[0, 1, 2]]))
        M = assemble_mass(tri).toarray()
        npt.assert_allclose(
            M, area * (np.ones((3, 3)) + np.eye(3)) / 12.0, rtol=1e-12
        )
        E = np.stack([e0, e1])
        grads = np.empty((3, 3))
        for i, rhs in enumerate(([-1.0, -1.0], [1.0, 0.0], [0.0, 1.0])):
            grads[i], *_ = np.linalg.lstsq(E, np.asarray(rhs), rcond=None)
        npt.assert_allclose(
            assemble_stiffness(tri).toarray(), area * grads @ grads.T,
            rtol=1e-12, atol=1e-13,
        )


def test_criterion_8_property_suites(zc_sweep, h_sweep, tmp_path):
    # Watertightness, orientation, Euler characteristic 2, stiffness
    # kernel, mass partition of unity, and byte-identical CSV reruns.
    surfaces = [s for _, _, s in zc_sweep["surfaces"]]
    surfaces += [s for _, _, s in h_sweep["levels"][:-1]]
    for surf in surfaces:
        assert surf.is_watertight()
        assert surf.orientation_consistent()
        assert surf.euler_characteristic() == 2
        A = assemble_stiffness(surf)
        ones = np.ones(surf.n_vertices)
        assert np.abs(A @ ones).max() <= 1e-12 * A.diagonal().max()
        M = assemble_mass(surf)
        npt.assert_allclose(
            np.asarray(M @ ones), vertex_support_areas(surf) / 3.0, rtol=1e-12
        )

    runs = {
        "quality.csv": ["extract", "--h", "0.25"],
        "convergence.csv": ["convergence", "--h-list", "0.5,0.25,0.125"],
        "conditioning.csv": ["conditioning", "--h", "0.5",
                             "--zc-list", "0.03,0.0"],
        "refmatrix.csv": ["refmatrix", "--blocks", "12", "--block-size", "12"],
        "massbound.csv": ["massbound", "--h-list", "0.5,0.25"],
    }
    for csv_name, args in runs.items():
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{csv_name}-{tag}"
            assert main(args + ["--out", str(out)]) == 0
            paths.append(out / csv_name)
        assert paths[0].read_bytes() == paths[1].read_bytes(), csv_name


def test_degenerate_interpolation_does_not_depend_on_zc(zc_sweep):
    # The paper's central claim: the maximum-angle condition alone gives
    # the optimal interpolation error, however small the smallest angle.
    # Over the z_c sweep at h = 1/16 the smallest angle falls to 2.4e-7
    # degrees; the largest error over the smallest is 1.060 (L2) and
    # 1.026 (H1).
    errs, phi_min = [], 180.0
    for _, spec, surf in zc_sweep["surfaces"]:
        u = spec.extend(product_arctan_function())
        coeffs = interpolate(u, surf)
        errs.append((l2_error(u, surf, coeffs), h1_semi_error(u, surf, coeffs)))
        phi_min = min(phi_min, quality_report(surf).phi_min_deg)
    assert phi_min < 1e-6, f"smallest angle {phi_min} deg"
    l2_spread, h1_spread = np.max(errs, axis=0) / np.min(errs, axis=0)
    assert l2_spread <= 1.1, f"L2 errors vary by {l2_spread}"
    assert h1_spread <= 1.05, f"H1 errors vary by {h1_spread}"


def test_degenerate_lambda2_is_proportional_to_delta_over_h():
    # delta is the smallest nodal |phi| after snapping.  For z_c > 0 it is
    # z_c^2 / 2, set by the nodes (+-1, 0, 0) and (0, +-1, 0), so
    # cond_As_eff grows like z_c^-2 at fixed h; at z_c = 0 it is the snap
    # floor.  lambda_2(A^s) h / delta is a constant of h alone: 0.4031 at
    # h = 1/8 and 0.3261-0.3264 at h = 1/16.
    for h in (0.125, 0.0625):
        mesh = build_uniform_mesh(BOX, h)
        ratios = []
        for zc in (0.0005, 0.00005, 0.0):
            spec = SphereLevelSet(center=(0.0, 0.0, zc))
            field = snap_small_values(interpolate_nodal(spec, mesh))
            delta = np.abs(field.values).min()
            if zc > 0.0:
                npt.assert_allclose(delta, zc * zc / 2.0, rtol=1e-6)
            As, d = diag_scale(assemble_stiffness(extract_surface(mesh, field)))
            ratios.append(effective_cond(As, np.sqrt(d)).lambda_min * h / delta)
        spread = max(ratios) / min(ratios) - 1.0
        assert spread <= 2e-3, f"h = {h}: lambda_2 h / delta = {ratios}"


def _laplace_beltrami_errors(surf, dense):
    """|lambda_0| and the largest |lambda - l(l+1)| over each group of
    2l + 1, l = 1, 2, 3, of the 16 smallest eigenvalues of A x = lambda M x.

    Each group must lie within 10 % of l(l+1), which keeps the groups
    apart.  ``dense`` selects scipy.linalg.eigh over shift-invert eigsh.
    """
    A, M = assemble_stiffness(surf), assemble_mass(surf)
    if dense:
        lam = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                       subset_by_index=[0, 15])
    else:
        # the shift-invert solve with a symmetric fill-reducing order, as in
        # sparse_linalg: 0.25 s per h = 1/16 surface against eigsh's 0.45 s
        lu = spla.splu((A + 0.5 * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        op_inv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
        lam = np.sort(spla.eigsh(A, k=16, M=M, sigma=-0.5, OPinv=op_inv,
                                 v0=np.ones(surf.n_vertices),
                                 return_eigenvectors=False))
    errs = [abs(lam[0])]
    for l in (1, 2, 3):
        group = lam[l * l:(l + 1) * (l + 1)]
        errs.append(np.abs(group - l * (l + 1)).max())
        assert errs[-1] <= 0.1 * l * (l + 1), f"l = {l}: {group}"
    return errs


def test_laplace_beltrami_spectrum(zc_sweep):
    # The eigenvalues of the Laplace-Beltrami operator on the unit sphere
    # are l(l+1), of multiplicity 2l + 1; A and M together must reproduce
    # them at O(h^2), and the tiny triangles of z_c -> 0 change the errors
    # by less than 10 % (15 % is asserted).  Dense eigh at h = 1/4, eigsh
    # with shift -0.5 at h = 1/8 (a dense solve there takes 3 s) and
    # h = 1/16.
    zcs = (0.0, 0.0005, 0.03)
    errs = {}
    for h in (0.25, 0.125, 0.0625):
        if h == 0.0625:
            surfaces = {zc: s for zc, _, s in zc_sweep["surfaces"] if zc in zcs}
        else:
            mesh = build_uniform_mesh(BOX, h)
            surfaces = {zc: _surface(mesh, zc)[1] for zc in zcs}
        for zc in zcs:
            errs[h, zc] = _laplace_beltrami_errors(surfaces[zc], dense=h == 0.25)
            assert errs[h, zc][0] <= 1e-4, f"h = {h}, z_c = {zc}: kernel"
    for zc in zcs:
        orders = np.log2(np.divide(errs[0.125, zc], errs[0.0625, zc]))[1:]
        assert ((orders >= L2_ORDER_BAND[0])
                & (orders <= L2_ORDER_BAND[1])).all(), f"z_c = {zc}: {orders}"
    for h in (0.25, 0.125, 0.0625):
        change = np.divide(errs[h, 0.0], errs[h, 0.03])[1:] - 1.0
        assert np.abs(change).max() <= 0.15, f"h = {h}: {change}"
