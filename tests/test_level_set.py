import numpy as np
import numpy.testing as npt
import pytest

from levelsurf.level_set import (
    AnalyticLevelSet,
    NodalField,
    SphereLevelSet,
    SurfaceFunction,
    interpolate_nodal,
    product_arctan_function,
    snap_small_values,
)
from levelsurf.tet_grid import BoxDomain, TetMesh, build_uniform_mesh

from conftest import BOX, LATTICES, meshgrid_nodes

# Frozen oracle: u((1,1,1) projected to the unit sphere) = arctan(2/sqrt(3))
# / (3 pi), evaluated with 50-digit arithmetic once and frozen here.
UE_AT_111 = 0.09093815805716499

CUBE = build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 1.0)  # 8 nodes


def cube_field(values):
    return NodalField(mesh=CUBE, values=np.asarray(values, dtype=float))


def test_sphere_signed_distance():
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    pts = np.array([[2, 0, 0], [0.5, 0, 0], [0, 1, 0]], dtype=float)
    npt.assert_allclose(spec.evaluate(pts), [1.0, -0.5, 0.0], atol=1e-15)


def test_sphere_shifted_center():
    spec = SphereLevelSet(center=(0.0, 0.0, 0.25), radius=2.0)
    npt.assert_allclose(spec.evaluate(np.array([[0.0, 0.0, 2.25]])), [0.0],
                        atol=1e-15)


def test_sphere_distance_past_float_range_is_inf():
    # pyproject turns RuntimeWarning into an error, so an overflow warning
    # fails this test
    spec = SphereLevelSet()
    assert spec.evaluate(np.array([[0.0, 0.0, 1e200]])).tolist() == [np.inf]
    assert spec.evaluate(np.array([1e200, 1e200, 0.0])) == np.inf


def test_sphere_validation():
    with pytest.raises(ValueError):
        SphereLevelSet(radius=-1.0)
    with pytest.raises(ValueError):
        SphereLevelSet(center=(0.0, 0.0))


def test_sphere_normal_and_closest_point():
    spec = SphereLevelSet(center=(1.0, 0.0, 0.0), radius=2.0)
    pts = np.array([[4.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
    npt.assert_allclose(spec.normal(pts), [[1, 0, 0], [0, 1, 0]], atol=1e-15)
    npt.assert_allclose(spec.closest_point(pts), [[3, 0, 0], [1, 2, 0]],
                        atol=1e-15)
    proj = spec.closest_point(pts)
    npt.assert_allclose(np.linalg.norm(proj - [1, 0, 0], axis=1), 2.0,
                        rtol=1e-15)


def test_closest_point_center_rejected():
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    with pytest.raises(ValueError):
        spec.closest_point(np.zeros((1, 3)))


def test_interpolate_nodal_matches_values(mesh_h4):
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    field = interpolate_nodal(spec, mesh_h4)
    npt.assert_array_equal(field.values, spec.evaluate(mesh_h4.nodes))
    assert len(field.values) == mesh_h4.n_nodes


SAMPLE_SPECS = {
    "sphere": SphereLevelSet(center=(0.1, -0.2, 0.3), radius=0.8),
    "analytic": AnalyticLevelSet(
        fn=lambda p: p[..., 0] ** 2 + np.sin(3.0 * p[..., 1])
        - 0.5 * p[..., 2] - 0.1),
}


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("spec_name", sorted(SAMPLE_SPECS))
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_plane_sampling_matches_meshgrid(name, spec_name, explicit):
    box, h = LATTICES[name]
    mesh = build_uniform_mesh(box, h)
    spec = SAMPLE_SPECS[spec_name]
    expected = spec.evaluate(meshgrid_nodes(mesh))
    nx, ny, nz = mesh.n_cells
    if explicit:
        mesh = TetMesh(mesh.nodes, mesh.tets, h=mesh.h, box=box)
    sizes = []

    def counted(points):
        sizes.append(points.shape)
        return spec.evaluate(points)

    field = interpolate_nodal(AnalyticLevelSet(fn=counted), mesh)
    npt.assert_array_equal(field.values, expected)
    if explicit:
        assert sizes == [(mesh.n_nodes, 3)]
    else:
        assert sizes == [((nx + 1) * (ny + 1), 3)] * (nz + 1)


# Id-range lengths set by the lattice: one x row long or just over it, and
# one just under or over an xy plane, so that ranges start at every offset
# within a row and a plane and cross row and plane ends.
CHUNK_BY_LATTICE = {
    "nx": lambda nx, ny: nx,
    "nx+2": lambda nx, ny: nx + 2,
    "plane-1": lambda nx, ny: (nx + 1) * (ny + 1) - 1,
    "plane+1": lambda nx, ny: (nx + 1) * (ny + 1) + 1,
}


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("chunk", [None, 1, 7, 100] + sorted(CHUNK_BY_LATTICE))
@pytest.mark.parametrize("spec_name", sorted(SAMPLE_SPECS))
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_chunk_sampling_matches_meshgrid(name, spec_name, chunk, explicit):
    """Evaluating ``spec`` on consecutive node-id ranges read through
    ``node_coords`` (None: all ids at once) gives the plane-sampled field
    and the meshgrid oracle bitwise."""
    box, h = LATTICES[name]
    mesh = build_uniform_mesh(box, h)
    spec = SAMPLE_SPECS[spec_name]
    expected = spec.evaluate(meshgrid_nodes(mesh))
    if chunk in CHUNK_BY_LATTICE:
        chunk = CHUNK_BY_LATTICE[chunk](*mesh.n_cells[:2])
    if explicit:
        mesh = TetMesh(mesh.nodes, mesh.tets, h=mesh.h, box=box)
    chunk = chunk or mesh.n_nodes
    ids = np.arange(mesh.n_nodes)
    chunked = [spec.evaluate(mesh.node_coords(ids[start:start + chunk]))
               for start in range(0, mesh.n_nodes, chunk)]
    assert [len(c) for c in chunked[:-1]] == [chunk] * (len(chunked) - 1)
    npt.assert_array_equal(np.concatenate(chunked), expected)
    npt.assert_array_equal(interpolate_nodal(spec, mesh).values, expected)


NOT_POINTWISE = {
    "scalar": lambda p: 1.0,
    "sum": lambda p: p[..., 0].sum(),
    "column": lambda p: p[..., :1],
    "too-long": lambda p: np.ones(len(p) + 1),
}


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("fn", sorted(NOT_POINTWISE))
def test_sampling_rejects_a_non_pointwise_result(fn, explicit):
    mesh = build_uniform_mesh(*LATTICES["6x4x2"])
    if explicit:
        mesh = TetMesh(mesh.nodes, mesh.tets, h=mesh.h, box=mesh.box)
    with pytest.raises(ValueError, match="returned shape"):
        interpolate_nodal(AnalyticLevelSet(fn=NOT_POINTWISE[fn]), mesh)


def test_nodal_field_validation():
    with pytest.raises(ValueError):
        cube_field([1.0, np.nan, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        cube_field([1.0, 2.0])


def test_snap_positive_convention():
    # max|phi| = 100 gives eps = 1e-8
    field = cube_field([0.0, 1.0, -1.0, 1e-30, 0.5, -0.5, 100.0, -2.0])
    snapped = snap_small_values(field)
    npt.assert_array_equal(snapped.values,
                           [1e-8, 1.0, -1.0, 1e-8, 0.5, -0.5, 100.0, -2.0])
    # Original field untouched.
    assert field.values[0] == 0.0


def test_snap_default_eps():
    field = cube_field([0.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    snapped = snap_small_values(field)
    npt.assert_array_equal(snapped.values,
                           [4e-10, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_snap_negative_small_to_positive():
    # max|phi| = 1 gives eps = 1e-10
    field = cube_field([-5e-11, 1.0, 5e-3, 1, 1, 1, 1, 1])
    snapped = snap_small_values(field)
    npt.assert_array_equal(snapped.values, [1e-10, 1.0, 5e-3, 1, 1, 1, 1, 1])


def test_snap_idempotent():
    field = cube_field([0.0, 1.0, -1e-12, 1, 1, 1, 1, 1])
    once = snap_small_values(field)
    twice = snap_small_values(once)
    npt.assert_array_equal(once.values, twice.values)


def test_snap_zero_field_rejected():
    with pytest.raises(ValueError):
        snap_small_values(cube_field(np.zeros(8)))


@pytest.mark.parametrize("h", [0.5, 0.25, 0.125])
def test_snap_count_unit_sphere(h):
    # The six axis poles of the unit sphere are lattice nodes at every h.
    mesh = build_uniform_mesh(BOX, h)
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    field = interpolate_nodal(spec, mesh)
    assert (field.values == 0.0).sum() == 6
    snapped = snap_small_values(field)
    assert np.abs(snapped.values).min() > 0.0
    assert (snapped.values != field.values).sum() == 6


def test_extend_function_frozen_value():
    u = product_arctan_function()
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    val = spec.extend(u).value(np.array([[1.0, 1.0, 1.0]]))
    npt.assert_allclose(val, [UE_AT_111], rtol=1e-14)


def test_extension_constant_along_normals():
    u = product_arctan_function()
    spec = SphereLevelSet(center=(0.0, 0.0, 0.25), radius=1.0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    on_surface = spec.closest_point(x * 3.0)
    for t in (0.4, 1.0, 1.7):
        pts = np.asarray([0, 0, 0.25]) + t * (on_surface - [0, 0, 0.25])
        npt.assert_allclose(spec.extend(u).value(pts),
                            u.value(on_surface), rtol=1e-12)


def test_product_arctan_gradient_fd():
    u = product_arctan_function()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 3))
    g = u.gradient(x)
    eps = 1e-6
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = eps
        fd = (u.value(x + e) - u.value(x - e)) / (2 * eps)
        npt.assert_allclose(g[:, ax], fd, rtol=1e-7, atol=1e-10)


def test_analytic_level_set_affine():
    a, b = np.array([1.0, 2.0, -1.0]), 0.5
    spec = AnalyticLevelSet(lambda p: p @ a + b)
    pts = np.array([[0.0, 0.0, 0.5], [1.0, 1.0, 1.0]])
    npt.assert_allclose(spec.evaluate(pts), pts @ a + b)


def test_surface_function_gradient_optional():
    u = SurfaceFunction(value=lambda p: p[:, 0])
    assert u.gradient is None
