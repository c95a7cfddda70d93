import numpy as np
import numpy.testing as npt
import pytest

from levelsurf.level_set import (
    AnalyticLevelSet,
    SphereLevelSet,
    interpolate_nodal,
    snap_small_values,
)
from levelsurf import mesh_quality
from levelsurf.mesh_quality import (
    ANGLE_BINS,
    _corner_angles,
    assumption_residuals,
    quality_report,
)
from levelsurf.surface_extract import SurfaceMesh, extract_surface
from levelsurf.surface_fem import assemble_stiffness
from levelsurf.tet_grid import build_uniform_mesh, corner_cross_dot

from conftest import BOX, sphere_surface, split_quad


def one_triangle(p):
    return np.asarray(p, dtype=float), np.array([[0, 1, 2]])


def test_equilateral():
    v, t = one_triangle([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
    npt.assert_allclose(_corner_angles(v[t]), np.pi / 3, rtol=1e-12)


def test_right_isosceles():
    v, t = one_triangle([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    ang = np.degrees(_corner_angles(v[t])[0])
    npt.assert_allclose(sorted(ang), [45.0, 45.0, 90.0], rtol=1e-12)


@pytest.mark.parametrize("site", ["triangle_angles", "split_quad",
                                  "assemble_stiffness"])
def test_near_degenerate_angle(site):
    # mpmath 50-digit oracle for the angle at the origin:
    #   arccos(-1/sqrt(1+eps^2)) with eps = 1e-3  ->  179.9427042204869 deg.
    # Each site reaches it through the shared corner kernel; the
    # "triangle_angles" site is _corner_angles, which quality_report runs.
    import mpmath

    eps = 1e-3
    mpmath.mp.dps = 50
    exact = mpmath.acos(-1 / mpmath.sqrt(1 + mpmath.mpf(eps) ** 2))
    expected = float(mpmath.degrees(exact))
    v, t = one_triangle([[0, 0, 0], [1, 0, 0], [-1, eps, 0]])
    if site == "triangle_angles":
        ang = np.degrees(_corner_angles(v[t])[0])
        npt.assert_allclose(ang.max(), expected, rtol=1e-12)
        assert ang.max() > 179.9
    elif site == "split_quad":
        # convex quad, near-pi corner (the origin) at position 2
        q = np.array([[0, 1, 0], [-1, eps, 0], [0, 0, 0], [1, 0, 0]], float)
        ang = np.degrees(np.arctan2(*corner_cross_dot(q)))
        npt.assert_allclose(ang[2], expected, rtol=1e-12)
        npt.assert_array_equal(split_quad(np.arange(4), q), [[2, 3, 0], [2, 0, 1]])
    else:
        # off-diagonal (1, 2) is -cot(angle at corner 0) / 2
        K = assemble_stiffness(SurfaceMesh(v, t)).toarray()
        npt.assert_allclose(-2.0 * K[1, 2], float(mpmath.cot(exact)), rtol=1e-12)


def test_angle_sums_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.standard_normal((3, 3))
        if 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])) < 1e-6:
            continue
        ang = _corner_angles(p[None])
        npt.assert_allclose(ang.sum(), np.pi, rtol=1e-12)
        assert (ang > 0).all() and (ang < np.pi).all()


def test_degenerate_triangle_rejected():
    v, t = one_triangle([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError, match="degenerate triangle at index 0"):
        _corner_angles(v[t])
    with pytest.raises(ValueError, match="degenerate triangle"):
        quality_report(SurfaceMesh(v, t))
    # with distance and normal handles too, the angle check names the
    # triangle before the normals would divide by its zero area
    v = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]], dtype=float)
    surf = SurfaceMesh(v, np.array([[0, 1, 2], [0, 3, 0]]))
    with pytest.raises(ValueError, match="degenerate triangle at index 1"):
        quality_report(surf, SphereLevelSet())


# h = 1/4 sphere at z_c = 0.03, F = 1668 triangles: F = 3 blocks exactly,
# 3 blocks and a remainder, and 238 blocks of an odd size plus 2.
@pytest.mark.parametrize("block", [556, 500, 7])
def test_blocked_report_matches_one_block(sphere_h4_shifted, block,
                                          monkeypatch):
    spec, surf = sphere_h4_shifted
    assert surf.n_triangles == 1668
    whole = quality_report(surf, spec)
    assert surf.n_triangles <= mesh_quality._REPORT_BLOCK
    monkeypatch.setattr(mesh_quality, "_REPORT_BLOCK", block)
    blocked = quality_report(surf, spec)
    assert blocked.assumptions_checked
    for name, value in whole.as_dict().items():
        assert getattr(blocked, name) == value, name
    # a zero-area triangle in a later block is named by its surface index
    bad = surf.triangles.copy()
    bad[1000, 2] = bad[1000, 1]
    with pytest.raises(ValueError, match="^degenerate triangle at index "
                                         "1000$"):
        quality_report(SurfaceMesh(surf.vertices, bad), spec)


def test_quality_report_sphere(sphere_h8):
    spec, surf = sphere_h8
    rep = quality_report(surf, spec)
    assert 0.0 < rep.phi_min_deg <= 60.0 <= rep.phi_max_deg < 180.0
    assert sum(rep.angle_histogram) == 3 * rep.n_triangles
    assert len(rep.angle_histogram) == ANGLE_BINS
    assert rep.n_vertices == surf.n_vertices
    assert rep.assumptions_checked
    assert rep.max_dist < 0.125 ** 2             # |d| <~ h^2
    assert rep.max_normal_dev < np.sqrt(2.0)     # no fold-over: n . n_h > 0


def test_count_below_1deg_recount(sphere_h8_shifted):
    spec, surf = sphere_h8_shifted
    rep = quality_report(surf, spec)
    # Independent second pass.
    count = 0
    for tri in surf.triangles:
        ang = np.degrees(_corner_angles(surf.vertices[tri[None, :]])[0])
        if ang.min() < 1.0:
            count += 1
    assert count == rep.count_below_1deg


def test_report_without_spec(sphere_h4):
    _, surf = sphere_h4
    for spec in (None, AnalyticLevelSet(lambda p: p[..., 0])):
        rep = quality_report(surf, spec)
        assert not rep.assumptions_checked
        assert np.isnan(rep.max_dist) and np.isnan(rep.max_normal_dev)
        assert rep.phi_max_deg > 0.0


def test_rigid_motion_invariance(sphere_h4):
    _, surf = sphere_h4
    rep = quality_report(surf)
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = SurfaceMesh(surf.vertices @ q.T + [1.0, -2.0, 0.5],
                        surf.triangles)
    rep2 = quality_report(moved)
    npt.assert_allclose(rep2.phi_max_deg, rep.phi_max_deg, rtol=1e-9)
    npt.assert_allclose(rep2.phi_min_deg, rep.phi_min_deg, rtol=1e-6)
    assert rep2.count_below_1deg == rep.count_below_1deg


def test_empty_surface_report():
    surf = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    rep = quality_report(surf)
    assert rep.n_triangles == 0
    assert np.isnan(rep.phi_max_deg)
    assert rep.count_below_1deg == 0


def test_as_dict_roundtrip(sphere_h4):
    spec, surf = sphere_h4
    d = quality_report(surf, spec).as_dict()
    for key in ("phi_max_deg", "phi_min_deg", "count_below_1deg",
                "n_vertices", "n_triangles", "max_dist", "max_normal_dev"):
        assert key in d


def test_assumption_slopes_sphere():
    levels = [(h, sphere_surface(h)[1]) for h in (0.5, 0.25, 0.125)]
    spec, _ = sphere_surface(0.5)
    res = assumption_residuals(levels, spec)
    assert res.slope_dist >= 1.8
    assert res.slope_normal >= 0.8
    # max_dist shrinks roughly 4x per halving.
    d = [row[1] for row in res.rows]
    assert d[0] / d[1] > 2.5 and d[1] / d[2] > 2.5


def test_assumption_residuals_reject_an_empty_level():
    # the far sphere misses the mesh: no residual, so no slope to fit
    levels = []
    for h, center in ((0.5, (0.0, 0.0, 0.0)), (0.25, (10.0, 0.0, 0.0))):
        mesh = build_uniform_mesh(BOX, h)
        field = interpolate_nodal(SphereLevelSet(center=center), mesh)
        levels.append((h, extract_surface(mesh, snap_small_values(field))))
    assert levels[0][1].n_triangles > 0 and levels[1][1].n_triangles == 0
    with pytest.raises(ValueError, match="h = 0.25 is empty"):
        assumption_residuals(levels, SphereLevelSet())


def test_assumption_residuals_needs_two_levels(sphere_h4):
    spec, surf = sphere_h4
    with pytest.raises(ValueError):
        assumption_residuals([(0.25, surf)], spec)


def test_assumption_residuals_needs_distance(sphere_h4):
    _, surf = sphere_h4
    spec = AnalyticLevelSet(lambda p: p[:, 0])
    with pytest.raises(ValueError, match="need a spec with a normal"):
        assumption_residuals([(0.25, surf), (0.125, surf)], spec)
