"""A torus: a closed surface of genus 1, run through the sphere's pipeline.

``TorusSpec`` (conftest) is a spec with geometry, so extraction, the
quality report, the assumption residuals and the interpolation errors run
on it as they run on the sphere.  The residuals read its ``normal``, and
the errors take its closest-point extension ``spec.extend(u)``.
"""

import numpy as np
import numpy.testing as npt
import pytest

from levelsurf.cli import H1_ORDER_BAND, L2_ORDER_BAND
from levelsurf.level_set import (interpolate_nodal, product_arctan_function,
                                 snap_small_values)
from levelsurf.mesh_quality import assumption_residuals, quality_report
from levelsurf.surface_extract import extract_surface
from levelsurf.surface_fem import h1_semi_error, interpolate, l2_error
from levelsurf.tet_grid import build_uniform_mesh

from conftest import BOX, TorusSpec

H_LEVELS = [0.25, 0.125, 0.0625]


@pytest.fixture(scope="module")
def torus_levels():
    """(spec, [(h, surface)]) of the torus at each h of ``H_LEVELS``."""
    spec = TorusSpec()
    levels = []
    for h in H_LEVELS:
        mesh = build_uniform_mesh(BOX, h)
        field = snap_small_values(interpolate_nodal(spec, mesh))
        levels.append((h, extract_surface(mesh, field)))
    return spec, levels


def test_torus_is_one_closed_oriented_torus(torus_levels):
    _, levels = torus_levels
    for h, surf in levels:
        facts = (surf.is_watertight(), surf.orientation_consistent(),
                 surf.euler_characteristic(), surf.n_components())
        assert facts == (True, True, 0, 1), f"h = {h}: {facts}"


def test_torus_max_angle_below_150(torus_levels):
    # 139.2, 143.4 and 147.5 degrees at h = 1/4, 1/8 and 1/16
    spec, levels = torus_levels
    for h, surf in levels:
        phi_max = quality_report(surf, spec).phi_max_deg
        assert phi_max < 150.0, f"h = {h}: phi_max = {phi_max}"


def test_torus_assumption_slopes(torus_levels):
    # measured: distance 1.967, normals 1.043
    spec, levels = torus_levels
    res = assumption_residuals(levels, spec)
    assert L2_ORDER_BAND[0] <= res.slope_dist <= L2_ORDER_BAND[1], res
    assert H1_ORDER_BAND[0] <= res.slope_normal <= H1_ORDER_BAND[1], res


def test_torus_interpolation_orders(torus_levels):
    # measured on the finest pair: L2 1.966, H1 1.006
    spec, levels = torus_levels
    u = spec.extend(product_arctan_function())
    errs = []
    for _, surf in levels:
        coeffs = interpolate(u, surf)
        errs.append((l2_error(u, surf, coeffs), h1_semi_error(u, surf, coeffs)))
    (h_c, _), (h_f, _) = levels[-2:]
    l2_order, h1_order = np.log(np.divide(*errs[-2:])) / np.log(h_c / h_f)
    assert L2_ORDER_BAND[0] <= l2_order <= L2_ORDER_BAND[1], l2_order
    assert H1_ORDER_BAND[0] <= h1_order <= H1_ORDER_BAND[1], h1_order


@pytest.mark.parametrize("seed", range(2))
def test_torus_extension_gradient_matches_fourth_order_difference(seed):
    # Points at distance 0.5 r to 1.5 r from the core circle, as in the
    # sphere's test.  The fourth-order difference quotient of u(closest
    # point) with step 2.5e-4 is accurate to 5.5e-12 there (1.4e-9 at step
    # 1e-3, 16 times less per halving).
    rng = np.random.default_rng(seed)
    spec = TorusSpec()
    phi, theta = rng.uniform(0.0, 2.0 * np.pi, (2, 200))
    s = spec.r * rng.uniform(0.5, 1.5, 200)
    rho = spec.R + s * np.cos(theta)
    x = np.asarray(spec.center) + np.column_stack(
        [rho * np.cos(phi), rho * np.sin(phi), s * np.sin(theta)])
    u = spec.extend(product_arctan_function())

    step = 2.5e-4
    fd = np.empty_like(x)
    for k, e in enumerate(step * np.eye(3)):
        fd[:, k] = (8.0 * (u.value(x + e) - u.value(x - e))
                    - (u.value(x + 2.0 * e) - u.value(x - 2.0 * e))) / (12.0 * step)
    got = u.gradient(x)
    npt.assert_allclose(got, fd, rtol=0.0, atol=1e-10)
    # the extension is constant along the normal
    assert np.abs(np.einsum("ij,ij->i", got, spec.normal(x))).max() <= 1e-14
