import os
import threading

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import sympy

from levelsurf.level_set import (
    SphereLevelSet,
    product_arctan_function,
)
from levelsurf import mesh_quality, sparse_linalg, surface_fem
from levelsurf.mesh_quality import quality_report
from levelsurf.sparse_linalg import eig_extreme
from levelsurf.surface_extract import SurfaceMesh
from levelsurf.surface_fem import (
    TRI_QP_BARY,
    TRI_QP_WEIGHTS,
    assemble_mass,
    assemble_stiffness,
    diag_scale,
    h1_semi_error,
    interpolate,
    l2_error,
    mass_cond,
    scaled_mass_cond,
)
from levelsurf.level_set import SurfaceFunction

from conftest import (
    constant_function,
    coordinate_function,
    dirichlet_energy,
    sphere_surface,
    vertex_support_areas,
)

MASS_BOUND = 2.0 * (2.0 + np.sqrt(2.0))  # 6.8284...


def _sympy_mass_reference():
    """Exact integrals of barycentric products over the reference triangle."""
    x, y = sympy.symbols("x y")
    lam = (1 - x - y, x, y)
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val = sympy.integrate(lam[i] * lam[j], (y, 0, 1 - x), (x, 0, 1))
            out[i, j] = float(val)
    return out


SYMPY_MASS = _sympy_mass_reference()  # (1 + delta_ij) / 24


def one_tri_surface(p):
    return SurfaceMesh(np.asarray(p, dtype=float), np.array([[0, 1, 2]]))


def flat_patch(n=4):
    """Right-triangle mesh of the unit square embedded at z=0."""
    g = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros((n + 1) ** 2)])
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = (i + 1) * (n + 1) + j
            tris.append([a, b, b + 1])
            tris.append([a, b + 1, a + 1])
    return SurfaceMesh(verts, np.array(tris))


def test_sympy_mass_reference_pattern():
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    npt.assert_allclose(SYMPY_MASS, expected, rtol=1e-14)


def test_quadrature_degree_4_exact():
    # On the reference triangle the rule must integrate x^a y^b exactly
    # for a + b <= 4; exact value is a! b! / (a + b + 2)!.
    for a in range(5):
        for b in range(5 - a):
            quad = float(
                (TRI_QP_BARY[:, 1] ** a * TRI_QP_BARY[:, 2] ** b) @ TRI_QP_WEIGHTS
            ) * 0.5
            exact = float(
                sympy.factorial(a) * sympy.factorial(b) / sympy.factorial(a + b + 2)
            )
            npt.assert_allclose(quad, exact, rtol=1e-12)


def test_quadrature_weights_positive():
    assert (TRI_QP_WEIGHTS > 0).all()
    assert (TRI_QP_BARY > 0).all() and (TRI_QP_BARY < 1).all()
    npt.assert_allclose(TRI_QP_BARY.sum(axis=1), 1.0, rtol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_quadrature_points_match_einsum(seed):
    # the broadcast sum gives the einsum's values bit for bit, at every
    # magnitude from 1e-300 to 1e300
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((500, 3, 3)) * 10.0 ** rng.integers(-300, 301, (500, 3, 3))
    qp = surface_fem._quadrature_points(p)
    expected = np.einsum("qk,fkj->fqj", TRI_QP_BARY, p)
    assert qp.shape == (500, 6, 3)
    npt.assert_array_equal(qp, expected)


def test_mass_element_matrix_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.standard_normal((3, 3))
        area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        if area < 1e-3:
            continue
        M = assemble_mass(one_tri_surface(p)).toarray()
        npt.assert_allclose(M, 2.0 * area * SYMPY_MASS, rtol=1e-13)


def test_stiffness_unit_right_triangle():
    A = assemble_stiffness(
        one_tri_surface([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    ).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    npt.assert_allclose(A, expected, rtol=1e-13, atol=1e-15)


def test_stiffness_element_direct_gradient():
    # Independent oracle: A_ij = area * grad(lam_i) . grad(lam_j) with the
    # barycentric gradients solved from lam_i(p_j) = delta_ij in-plane.
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.standard_normal((3, 3))
        e0, e1 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * np.linalg.norm(np.cross(e0, e1))
        if area < 1e-3:
            continue
        E = np.stack([e0, e1])
        grads = np.empty((3, 3))
        for i, rhs in enumerate(([-1.0, -1.0], [1.0, 0.0], [0.0, 1.0])):
            grads[i], *_ = np.linalg.lstsq(E, np.asarray(rhs), rcond=None)
        expected = area * grads @ grads.T
        A = assemble_stiffness(one_tri_surface(p)).toarray()
        npt.assert_allclose(A, expected, rtol=1e-10, atol=1e-13)


def test_stiffness_sliver_diagonal_growth():
    # Triangle with min angle eps has a diagonal entry ~ cot(eps) / 2.
    diags = {}
    for eps in (1e-2, 1e-4):
        p = [[0, 0, 0], [1, 0, 0], [np.cos(eps), np.sin(eps), 0]]
        diags[eps] = assemble_stiffness(one_tri_surface(p)).diagonal().max()
    expected_ratio = np.tan(1e-2) / np.tan(1e-4)  # cot(1e-4)/cot(1e-2) ~ 1e2
    npt.assert_allclose(diags[1e-4] / diags[1e-2], expected_ratio, rtol=1e-2)


def test_matrices_exactly_symmetric(sphere_h4):
    _, surf = sphere_h4
    for A in (assemble_mass(surf), assemble_stiffness(surf)):
        assert abs(A - A.T).max() == 0.0


def test_stiffness_rowsums_zero(sphere_h8):
    _, surf = sphere_h8
    A = assemble_stiffness(surf)
    ones = np.ones(surf.n_vertices)
    assert np.abs(A @ ones).max() <= 1e-12 * A.diagonal().max()


def test_stiffness_spectrum(sphere_h4_shifted):
    # Snapped extraction: bounded aspect ratios keep the eigenvalue scales
    # clean enough to separate the constant kernel from the rest.
    _, surf = sphere_h4_shifted
    A = assemble_stiffness(surf).toarray()
    w = np.linalg.eigvalsh(A)
    assert abs(w[0]) <= 1e-10 * w[-1]   # kernel: constants
    assert w[1] > 1e-6 * w[-1]          # one-dimensional kernel only


def test_mass_row_sums(sphere_h4):
    _, surf = sphere_h4
    M = assemble_mass(surf)
    rows = np.asarray(M @ np.ones(surf.n_vertices))
    npt.assert_allclose(rows, vertex_support_areas(surf) / 3.0, rtol=1e-12)
    npt.assert_allclose(M.sum(), surf.areas().sum(), rtol=1e-12)


def test_mass_positive_definite(sphere_h4):
    _, surf = sphere_h4
    w = np.linalg.eigvalsh(assemble_mass(surf).toarray())
    assert w[0] > 0.0


def test_mass_rayleigh_ratio_bounds(sphere_h4):
    _, surf = sphere_h4
    M = assemble_mass(surf)
    d = M.diagonal()
    rng = np.random.default_rng(11)
    lo, hi = (2.0 - np.sqrt(2.0)) / 2.0, 2.0
    for _ in range(50):
        v = rng.standard_normal(surf.n_vertices)
        ratio = (v @ (M @ v)) / (v @ (d * v))
        assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_galerkin_energy_identity(sphere_h4):
    # Sliver triangles push entries to ~1e9, so the two summation orders
    # agree only to accumulated roundoff at that scale.
    _, surf = sphere_h4
    A = assemble_stiffness(surf)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal(surf.n_vertices)
        npt.assert_allclose(v @ (A @ v), dirichlet_energy(surf, v), rtol=1e-8)


def test_diag_scale_identity():
    import scipy.sparse as sp

    S, d = diag_scale(sp.eye(5, format="csr"))
    npt.assert_allclose(S.toarray(), np.eye(5))
    npt.assert_allclose(d, 1.0)


def test_diag_scale_2x2():
    import scipy.sparse as sp

    S, d = diag_scale(sp.csr_matrix(np.array([[4.0, 2.0], [2.0, 4.0]])))
    npt.assert_allclose(S.toarray(), [[1.0, 0.5], [0.5, 1.0]], rtol=1e-15)
    npt.assert_allclose(d, [4.0, 4.0])


def test_diag_scale_mass(sphere_h4):
    _, surf = sphere_h4
    Ms, d = diag_scale(assemble_mass(surf))
    diag = Ms.diagonal()
    assert (diag == 1.0).all()
    assert abs(Ms - Ms.T).max() <= 1e-15
    off = Ms.copy()
    off.setdiag(0.0)
    assert abs(off).max() < 1.0       # Cauchy-Schwarz for a Gram matrix
    npt.assert_allclose(d, assemble_mass(surf).diagonal())


def test_diag_scale_rejects_nonpositive():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="row 1"):
        diag_scale(A)


@pytest.mark.parametrize("fixture", ["sphere_h4", "sphere_h8_shifted"])
def test_scaled_mass_condition_bound(fixture, request):
    _, surf = request.getfixturevalue(fixture)
    Ms, _ = diag_scale(assemble_mass(surf))
    w = np.linalg.eigvalsh(Ms.toarray())
    assert w[-1] / w[0] <= MASS_BOUND


def test_scaled_mass_condition_bound_flat_patch():
    Ms, _ = diag_scale(assemble_mass(flat_patch(6)))
    w = np.linalg.eigvalsh(Ms.toarray())
    assert w[-1] / w[0] <= MASS_BOUND


@pytest.mark.parametrize("h", [0.25, 0.125])
@pytest.mark.parametrize("zc", [0.0, 0.0005, 0.03])
def test_scaled_mass_cond_matches_dense(h, zc):
    _, surf = sphere_surface(h, zc=zc)
    M = assemble_mass(surf)
    Ms, _ = diag_scale(M)
    w = np.linalg.eigvalsh(Ms.toarray())
    est = scaled_mass_cond(M)
    assert est.lambda_max == 2.0
    npt.assert_allclose(w[-1], 2.0, rtol=1e-12)
    npt.assert_allclose(est.lambda_min, w[0], rtol=1e-6)
    assert est.lambda_min >= 0.5 and est.cond <= 4.0
    assert est.cond == 2.0 / est.lambda_min

    w = np.linalg.eigvalsh(M.toarray())
    est = mass_cond(M)
    npt.assert_allclose(est.lambda_max, w[-1], rtol=1e-6)
    # A Ritz value of M^-1 is at most 1 / w[0], and Lanczos stops within
    # 1e-6 of an eigenvalue.  At h = 1/8, z_c = 0.03 the two smallest lie
    # 1.7e-6 apart and the estimate lands between them, 1.3e-6 above w[0].
    assert est.lambda_min >= w[0] * (1.0 - 1e-6)
    near = w[np.argmin(np.abs(w - est.lambda_min))]
    npt.assert_allclose(est.lambda_min, near, rtol=1e-6)
    assert est.cond == est.lambda_max / est.lambda_min


@pytest.mark.parametrize("zc", [0.0, 0.9])
def test_scaled_mass_cond_at_most_4_at_wathen_bound(zc):
    # The 14-vertex sphere at h = 2 has lambda_min(Ms) = 1/2 to roundoff,
    # where a Ritz value of 2 I - Ms can land a few ulps above 3/2.
    _, surf = sphere_surface(2.0, zc=zc)
    M = assemble_mass(surf)
    Ms, _ = diag_scale(M)
    npt.assert_allclose(np.linalg.eigvalsh(Ms.toarray())[0], 0.5, rtol=1e-12)
    est = scaled_mass_cond(M)
    assert est.lambda_min >= 0.5 and est.cond <= 4.0


@pytest.mark.parametrize("cond", [scaled_mass_cond, mass_cond],
                         ids=lambda f: f.__name__)
def test_scaled_mass_cond_rejects_other_matrices(sphere_h4, cond):
    _, surf = sphere_h4
    with pytest.raises(ValueError, match="not a P1 mass matrix"):
        cond(assemble_stiffness(surf))
    diagonal = sp.diags(assemble_mass(surf).diagonal(), format="csr")
    with pytest.raises(ValueError, match="not a P1 mass matrix"):
        cond(diagonal)


def test_scaled_mass_cond_factors_nothing(monkeypatch):
    # M at h = 1/16 (n = 14 282): lambda_max(Ms) is known and lambda_min(Ms)
    # comes from a direct run on 2 I - Ms; M's own lambda_min comes from
    # Lanczos on Jacobi-PCG solves.  So no LU is ever factored.
    _, surf = sphere_surface(0.0625)
    M = assemble_mass(surf)
    Ms, _ = diag_scale(M)
    lam_min_s = eig_extreme(Ms, "min")
    lam_max, lam_min = eig_extreme(M, "max"), eig_extreme(M, "min")

    def no_lu(*args, **kwargs):
        raise AssertionError("a mass matrix was factored")

    monkeypatch.setattr(sparse_linalg.spla, "splu", no_lu)
    est = scaled_mass_cond(M)
    npt.assert_allclose(est.lambda_min, lam_min_s, rtol=1e-6)
    assert 0.5 <= est.lambda_min <= est.lambda_max == 2.0
    assert est.cond <= MASS_BOUND

    est = mass_cond(M)
    assert est.lambda_max == lam_max
    npt.assert_allclose(est.lambda_min, lam_min, rtol=1e-6)


def test_mass_cond_raises_on_unconverged_solve(sphere_h4, monkeypatch):
    _, surf = sphere_h4
    M = assemble_mass(surf)

    def stalled(A, b, *args, **kwargs):
        x, stats = sparse_linalg.pcg(A, b, *args, **kwargs)
        return x, sparse_linalg.SolveStats(stats.iterations, stats.relres,
                                           False)

    monkeypatch.setattr(surface_fem, "pcg", stalled)
    with pytest.raises(np.linalg.LinAlgError, match="mass-matrix solve"):
        mass_cond(M)


def test_interpolate_constant(sphere_h4):
    spec, surf = sphere_h4
    npt.assert_allclose(interpolate(spec.extend(constant_function(1.0)), surf),
                        1.0)


def test_interpolate_coordinate_on_sphere(sphere_h4):
    spec, surf = sphere_h4
    coeffs = interpolate(spec.extend(coordinate_function(2)), surf)
    v = surf.vertices
    npt.assert_allclose(coeffs, v[:, 2] / np.linalg.norm(v, axis=1), rtol=1e-13)


def test_interpolate_extension_constancy():
    # The extension is constant along sphere normals, so two vertices on the
    # same ray get the same coefficient.
    spec = SphereLevelSet()
    u = product_arctan_function()
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    surf = SurfaceMesh(
        np.stack([v, 1.1 * v, [1.0, 0.0, 0.0]]), np.array([[0, 1, 2]])
    )
    coeffs = interpolate(spec.extend(u), surf)
    npt.assert_allclose(coeffs[0], coeffs[1], rtol=1e-12)


def test_error_norms_reject_bad_coeffs(sphere_h4):
    spec, surf = sphere_h4
    u = spec.extend(product_arctan_function())
    with pytest.raises(ValueError):
        l2_error(u, surf, np.zeros(3))
    with pytest.raises(ValueError):
        h1_semi_error(u, surf, np.zeros(3))


def test_constant_interpolated_exactly(sphere_h4):
    spec, surf = sphere_h4
    u = spec.extend(constant_function(2.5))
    coeffs = interpolate(u, surf)
    assert l2_error(u, surf, coeffs) <= 1e-13
    assert h1_semi_error(u, surf, coeffs) <= 1e-9


def test_affine_reproduced_on_flat_patch():
    surf = flat_patch(4)
    a = np.array([0.7, -0.3, 0.0])
    u = SurfaceFunction(value=lambda p: np.asarray(p) @ a + 0.2,
                        gradient=lambda p: np.broadcast_to(a, np.shape(p)))
    coeffs = interpolate(u, surf)
    assert l2_error(u, surf, coeffs) <= 1e-13
    assert h1_semi_error(u, surf, coeffs) <= 1e-13


def test_h1_needs_gradient(sphere_h4):
    spec, surf = sphere_h4
    # the extension of a u without a gradient has none either
    u = spec.extend(SurfaceFunction(value=product_arctan_function().value))
    assert u.gradient is None
    coeffs = interpolate(u, surf)
    with pytest.raises(ValueError, match="gradient"):
        h1_semi_error(u, surf, coeffs)


@pytest.mark.parametrize("seed", range(3))
def test_extension_gradient_matches_fourth_order_difference(seed):
    # Points in the shell 0.5 r <= |x - c| <= 1.5 r around a shifted,
    # resized sphere.  The fourth-order difference quotient of
    # u(closest point) along each axis with step 2.5e-4 is accurate to
    # 1.5e-12 there (3.7e-10 at step 1e-3, 16 times less per halving).
    rng = np.random.default_rng(seed)
    spec = SphereLevelSet(center=(0.3, -0.2, 0.1), radius=0.8)
    u = product_arctan_function()
    d = rng.standard_normal((200, 3))
    d *= (spec.radius * rng.uniform(0.5, 1.5, 200)
          / np.linalg.norm(d, axis=1))[:, None]
    x = np.asarray(spec.center) + d

    def ext(pts):
        return u.value(spec.closest_point(pts))

    step = 2.5e-4
    fd = np.empty_like(x)
    for k, e in enumerate(step * np.eye(3)):
        fd[:, k] = (8.0 * (ext(x + e) - ext(x - e))
                    - (ext(x + 2.0 * e) - ext(x - 2.0 * e))) / (12.0 * step)
    got = spec.extend(u).gradient(x)
    assert got.shape == x.shape
    npt.assert_allclose(got, fd, rtol=0.0, atol=1e-11)
    # the extension is constant along the normal
    yh = spec.normal(x)
    assert np.abs(np.einsum("ij,ij->i", got, yh)).max() <= 1e-15


def _h1_error_chain_rule(u, sphere, surface, coeffs):
    """H1 seminorm oracle using the analytic gradient of the extension.

    D(u o p)(x) = (r/|x-c|) (I - yhat yhat^T) Du(p(x)); the error integrand
    compares its in-plane part with the P1 gradient solved per triangle.
    """
    p = surface.vertices[surface.triangles]
    e0, e1 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    n = np.cross(e0, e1)
    two_area = np.linalg.norm(n, axis=1)
    nh = n / two_area[:, None]

    c = coeffs[surface.triangles]
    g = np.empty((len(p), 3))
    for f in range(len(p)):
        E = np.stack([e0[f], e1[f]])
        rhs = np.array([c[f, 1] - c[f, 0], c[f, 2] - c[f, 0]])
        g[f], *_ = np.linalg.lstsq(E, rhs, rcond=None)

    qp = np.einsum("qk,fkj->fqj", TRI_QP_BARY, p)
    x = qp.reshape(-1, 3)
    y = x - np.asarray(sphere.center)
    ny = np.linalg.norm(y, axis=1, keepdims=True)
    yhat = y / ny
    Du = u.gradient(np.asarray(sphere.center) + sphere.radius * yhat)
    g_ext = (sphere.radius / ny) * (
        Du - yhat * np.einsum("ij,ij->i", Du, yhat)[:, None]
    )
    g_ext = g_ext.reshape(len(p), 6, 3)
    g_t = g_ext - nh[:, None, :] * np.einsum("fqj,fj->fq", g_ext, nh)[..., None]
    diff = g_t - g[:, None, :]
    diff2 = np.einsum("fqj,fqj->fq", diff, diff)
    return float(np.sqrt(((diff2 @ TRI_QP_WEIGHTS) * 0.5 * two_area).sum()))


def test_h1_matches_chain_rule_oracle(sphere_h4):
    spec, surf = sphere_h4
    u = product_arctan_function()
    coeffs = interpolate(spec.extend(u), surf)
    got = h1_semi_error(spec.extend(u), surf, coeffs)
    analytic = _h1_error_chain_rule(u, spec, surf, coeffs)
    npt.assert_allclose(got, analytic, rtol=1e-12)


def _whole_surface_errors(u, spec, surface, coeffs):
    """(L2, H1-seminorm) errors with the quadrature over all triangles at once.

    The oracle for the blocked quadrature: same arithmetic per triangle,
    same summation of the per-triangle array.
    """
    p, n, two_area = surface.tri_geometry(nondegenerate=True)
    c = coeffs[surface.triangles]
    qp = np.einsum("qk,fkj->fqj", TRI_QP_BARY, p)
    x = qp.reshape(-1, 3)
    ue = u.value(spec.closest_point(x)).reshape(qp.shape[:2])
    vh = c @ TRI_QP_BARY.T
    l2_tri = ((ue - vh) ** 2 @ TRI_QP_WEIGHTS) * (0.5 * two_area)

    nh = n / two_area[:, None]
    grad = (
        c[:, [0]] * np.cross(nh, p[:, 2] - p[:, 1])
        + c[:, [1]] * np.cross(nh, p[:, 0] - p[:, 2])
        + c[:, [2]] * np.cross(nh, p[:, 1] - p[:, 0])
    ) / two_area[:, None]
    g = u.gradient(spec.closest_point(x))
    yh = spec.normal(x)
    g = g - yh * np.einsum("ij,ij->i", g, yh)[:, None]
    g = (spec.radius / np.linalg.norm(x - spec.center, axis=1))[:, None] * g
    g = g.reshape(qp.shape)
    diff = g - nh[:, None] * np.einsum("fqj,fj->fq", g, nh)[..., None] - grad[:, None]
    h1_tri = (np.einsum("fqj,fqj->fq", diff, diff) @ TRI_QP_WEIGHTS) * (0.5 * two_area)
    return float(np.sqrt(l2_tri.sum())), float(np.sqrt(h1_tri.sum()))


# h = 1/4 sphere, F = 1656 triangles: F below the block, F = 3 blocks
# exactly, 3 blocks and a remainder, and 236 blocks of an odd size plus 4.
@pytest.mark.parametrize("block", [4096, 552, 500, 7])
@pytest.mark.parametrize("u", [product_arctan_function(), coordinate_function(0)],
                         ids=["product-arctan", "x"])
def test_blocked_errors_match_whole_surface(sphere_h4, u, block, monkeypatch):
    spec, surf = sphere_h4
    assert surf.n_triangles == 1656
    monkeypatch.setattr(surface_fem, "_QUAD_BLOCK", block)
    coeffs = interpolate(spec.extend(u), surf)
    ref_l2, ref_h1 = _whole_surface_errors(u, spec, surf, coeffs)
    assert l2_error(spec.extend(u), surf, coeffs) == ref_l2
    assert h1_semi_error(spec.extend(u), surf, coeffs) == ref_h1


class _LoggedSphere:
    """A sphere spec whose ``evaluate`` and ``normal`` log the threads that
    call them."""

    def __init__(self, spec, threads):
        self.spec, self.threads = spec, threads

    def evaluate(self, points):
        self.threads.add(threading.get_ident())
        return self.spec.evaluate(points)

    def normal(self, points):
        self.threads.add(threading.get_ident())
        return self.spec.normal(points)


def _logged(fn, threads):
    def call(points):
        threads.add(threading.get_ident())
        return fn(points)
    return call


# The h = 1/16 sphere has 28 800 triangles: 7 full quadrature blocks, and
# with the report's block set to the quadrature's, 7 report blocks too.
# The h = 1/4 sphere, 1656 triangles, is below one block of either.
@pytest.mark.parametrize("h, threaded", [(0.0625, True), (0.25, False)])
def test_threads_change_no_result(h, threaded, monkeypatch):
    spec, surf = sphere_surface(h)
    assert (surf.n_triangles >= 2 * surface_fem._QUAD_BLOCK) == threaded
    monkeypatch.setattr(mesh_quality, "_REPORT_BLOCK", surface_fem._QUAD_BLOCK)
    u = spec.extend(product_arctan_function())
    coeffs = interpolate(u, surf)
    results, threads = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        seen = threads[cpus] = set()
        logged_u = SurfaceFunction(_logged(u.value, seen),
                                   _logged(u.gradient, seen))
        results[cpus] = (
            l2_error(logged_u, surf, coeffs),
            h1_semi_error(logged_u, surf, coeffs),
            # the spec's normal is called in the blocks alone
            quality_report(surf, _LoggedSphere(spec, seen)).as_dict())
    assert results[1] == results[2]
    assert threads[1] == {threading.get_ident()}
    # on two CPUs every block runs off this thread; the report evaluates
    # the distance at the vertices once, here
    off_main = threads[2] - {threading.get_ident()}
    assert (1 <= len(off_main) <= 2) == threaded
    assert threading.get_ident() in threads[2]


def test_interpolation_orders_loose(sphere_h4, sphere_h8):
    from conftest import sphere_surface

    errs = []
    for spec, surf in (sphere_surface(0.5), sphere_h4, sphere_h8):
        u = spec.extend(product_arctan_function())
        coeffs = interpolate(u, surf)
        errs.append((l2_error(u, surf, coeffs), h1_semi_error(u, surf, coeffs)))
    e = np.asarray(errs)
    assert (np.diff(e[:, 0]) < 0).all() and (np.diff(e[:, 1]) < 0).all()
    l2_orders = np.log2(e[:-1, 0] / e[1:, 0])
    h1_orders = np.log2(e[:-1, 1] / e[1:, 1])
    assert ((l2_orders > 1.5) & (l2_orders < 2.5)).all()
    assert ((h1_orders > 0.6) & (h1_orders < 1.4)).all()
