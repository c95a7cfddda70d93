import dataclasses
import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from levelsurf.level_set import (
    AnalyticLevelSet,
    NodalField,
    SphereLevelSet,
    interpolate_nodal,
    snap_small_values,
)
from levelsurf.surface_extract import (
    _IS_TRIANGLE,
    _PATTERNS,
    SurfaceMesh,
    extract_surface,
)
from levelsurf.tet_grid import (
    BoxDomain,
    TetMesh,
    build_uniform_mesh,
    tet_volumes,
)

from conftest import (BOX, plane_residuals, refuse_mesh_arrays,
                      sphere_surface, split_quad)

# Single positively oriented reference tet (0,0,0),(1,0,0),(0,1,0),(0,0,1).
REF_NODES = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
REF_MESH = TetMesh(REF_NODES, np.array([[0, 1, 2, 3]]), h=1.0,
                   box=BoxDomain((0, 0, 0), (1, 1, 1)))


def ref_field(values):
    return NodalField(mesh=REF_MESH, values=np.asarray(values, dtype=float))


def test_single_tet_triangle_case():
    # One positive node: phi = -1 + 2z, zero plane z = 1/2.
    surf = extract_surface(REF_MESH, ref_field([-1, -1, -1, 1]))
    assert surf.n_triangles == 1
    assert surf.n_vertices == 3
    expected = {(0.0, 0.0, 0.5), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)}
    got = {tuple(v) for v in surf.vertices}
    assert got == expected
    npt.assert_allclose(surf.vertex_t, 0.5)
    # Normal points from phi<0 to phi>0, here +z.
    npt.assert_allclose(surf.normals(), [[0, 0, 1]], atol=1e-15)


def test_single_tet_lone_negative():
    # phi = -1 + 2x + 2y + 2z; normal along (1,1,1)/sqrt(3).
    surf = extract_surface(REF_MESH, ref_field([-1, 1, 1, 1]))
    assert surf.n_triangles == 1
    expected = {(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
    assert {tuple(v) for v in surf.vertices} == expected
    npt.assert_allclose(surf.normals(), np.ones((1, 3)) / np.sqrt(3.0),
                        rtol=1e-14)


def test_single_tet_quad_case():
    # Two positive nodes: phi = -1 + 2y + 2z, cut is a planar rectangle.
    surf = extract_surface(REF_MESH, ref_field([-1, -1, 1, 1]))
    assert surf.n_vertices == 4
    assert surf.n_triangles == 2
    expected = {(0.0, 0.5, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
                (0.0, 0.0, 0.5)}
    assert {tuple(v) for v in surf.vertices} == expected
    n = surf.normals()
    npt.assert_allclose(n, np.tile([0, 1, 1] / np.sqrt(2.0), (2, 1)),
                        rtol=1e-14)
    assert surf.tri_from_quad.all()
    # Rectangle ties split at the smallest global vertex id (= 0).
    assert all(0 in tri for tri in surf.triangles)


def test_sign_flip_reverses_orientation():
    up = extract_surface(REF_MESH, ref_field([-1, -1, -1, 1]))
    down = extract_surface(REF_MESH, ref_field([1, 1, 1, -1]))
    npt.assert_allclose(up.vertices, down.vertices)
    npt.assert_allclose(down.normals(), -up.normals(), atol=1e-15)


def test_no_cut_gives_empty_surface():
    surf = extract_surface(REF_MESH, ref_field([1, 2, 3, 4]))
    assert surf.n_triangles == 0
    assert surf.n_vertices == 0
    assert surf.n_components() == 0


def test_cut_parameters_strictly_interior(sphere_h4):
    _, surf = sphere_h4
    assert surf.vertex_t.min() > 0.0
    assert surf.vertex_t.max() < 1.0


def test_vertices_lie_on_their_edges(sphere_h4):
    _, surf = sphere_h4
    mesh = build_uniform_mesh(BOX, 0.25)
    a = mesh.nodes[surf.vertex_edges[:, 0]]
    b = mesh.nodes[surf.vertex_edges[:, 1]]
    x = a + surf.vertex_t[:, None] * (b - a)
    npt.assert_allclose(surf.vertices, x, atol=1e-15)


def test_vertex_edges_deduplicated(sphere_h4):
    _, surf = sphere_h4
    e = surf.vertex_edges
    assert (e[:, 0] < e[:, 1]).all()
    keys = e[:, 0] * (2 ** 32) + e[:, 1]
    assert len(np.unique(keys)) == surf.n_vertices
    assert (np.diff(keys) > 0).all()   # sorted by edge key


@pytest.mark.parametrize("case", ["h4", "h8", "h8_shifted"])
def test_sphere_topology(case, sphere_h4, sphere_h8, sphere_h8_shifted):
    _, surf = {"h4": sphere_h4, "h8": sphere_h8,
               "h8_shifted": sphere_h8_shifted}[case]
    assert surf.is_watertight()
    assert surf.orientation_consistent()
    assert surf.euler_characteristic() == 2
    assert surf.n_components() == 1
    assert surf.areas().min() > 0.0


def test_sphere_normals_outward(sphere_h8):
    spec, surf = sphere_h8
    bary = surf.vertices[surf.triangles].mean(axis=1)
    out = bary - np.asarray(spec.center)
    assert (np.einsum("ij,ij->i", surf.normals(), out) > 0.0).all()


def test_snapped_zero_shift_surface():
    _, surf = sphere_surface(0.25, zc=0.0)
    assert surf.is_watertight()
    assert surf.orientation_consistent()
    assert surf.euler_characteristic() == 2


def test_extraction_deterministic():
    _, s1 = sphere_surface(0.25, zc=0.002)
    _, s2 = sphere_surface(0.25, zc=0.002)
    npt.assert_array_equal(s1.triangles, s2.triangles)
    npt.assert_array_equal(s1.vertices, s2.vertices)
    npt.assert_array_equal(s1.tri_parent, s2.tri_parent)


def test_triangles_follow_parent_tets(sphere_h4):
    # One triangle per cut tet, or two quad halves, in increasing tet id.
    mesh = build_uniform_mesh(BOX, 0.25)
    _, surf = sphere_h4
    parent = surf.tri_parent
    assert (np.diff(parent) >= 0).all()
    assert 0 <= parent[0] and parent[-1] < mesh.n_tets
    _, counts = np.unique(parent, return_counts=True)
    assert set(counts.tolist()) == {1, 2}
    npt.assert_array_equal(np.repeat(counts == 2, counts), surf.tri_from_quad)


def test_affine_cut_planarity():
    mesh = build_uniform_mesh(BOX, 0.25)
    a, b = np.array([0.3, -0.7, 1.1]), 0.1234
    spec = AnalyticLevelSet(lambda p: p @ a + b)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    surf = extract_surface(mesh, field)
    res = plane_residuals(mesh, field, surf)
    assert res.shape == (surf.n_triangles, 3) and res.size > 0
    assert res.max() <= 1e-12
    # Every extracted vertex satisfies the affine equation exactly.
    npt.assert_allclose(surf.vertices @ a + b, 0.0, atol=1e-12)


def test_sphere_cut_planarity(sphere_h4):
    mesh = build_uniform_mesh(BOX, 0.25)
    spec, surf = sphere_h4
    field = snap_small_values(interpolate_nodal(spec, mesh))
    res = plane_residuals(mesh, field, surf)
    assert res.max() <= 1e-12 * mesh.h


def test_plane_residuals_detect_a_bad_surface(sphere_h4):
    # The oracle must fail a wrong surface: a corner pointing at the far
    # vertex of an edge neighbour, or one vertex moved by 1e-9 per axis.
    # Measured: 6.6e-16 h as extracted, 4.1e-2 h rewired, 6.7e-9 h moved.
    mesh = build_uniform_mesh(BOX, 0.25)
    spec, surf = sphere_h4
    field = snap_small_values(interpolate_nodal(spec, mesh))
    assert plane_residuals(mesh, field, surf).max() <= 1e-12 * mesh.h

    triangles = surf.triangles.copy()
    first = set(triangles[0].tolist())
    neighbour = next(t for t in triangles[1:] if len(first & set(t.tolist())) == 2)
    triangles[0, 0] = next(v for v in neighbour if v not in first)
    rewired = dataclasses.replace(surf, triangles=triangles)
    assert plane_residuals(mesh, field, rewired).max() > 1e-3 * mesh.h

    vertices = surf.vertices.copy()
    vertices[0] += 1e-9
    moved = dataclasses.replace(surf, vertices=vertices)
    assert plane_residuals(mesh, field, moved).max() > 1e-9 * mesh.h

    unparented = SurfaceMesh(surf.vertices, surf.triangles)
    with pytest.raises(ValueError, match="no parent tet"):
        plane_residuals(mesh, field, unparented)


SURFACE_ARRAYS = ["vertices", "triangles", "vertex_edges", "vertex_t",
                  "tri_parent", "tri_from_quad"]
NARROW_BAND_FIELDS = {
    "sphere_zc0.03": SphereLevelSet(center=(0.0, 0.0, 0.03)),
    "sphere_zc0.00025": SphereLevelSet(center=(0.0, 0.0, 0.00025)),
    "sphere_zc0": SphereLevelSet(center=(0.0, 0.0, 0.0)),
    # crosses the box boundary, so boundary cubes are cut
    "plane": AnalyticLevelSet(lambda p: p @ np.array([0.3, -0.7, 1.1]) + 0.1234),
    "positive": AnalyticLevelSet(lambda p: 1.0 + (p * p).sum(axis=-1)),
    "negative": AnalyticLevelSet(lambda p: -1.0 - (p * p).sum(axis=-1)),
}


@pytest.mark.parametrize("name", sorted(NARROW_BAND_FIELDS))
@pytest.mark.parametrize("h", [0.5, 0.25, 0.125, 0.0625])
def test_narrow_band_matches_explicit_mesh(h, name, monkeypatch):
    # A lattice mesh cuts only the tets of sign-change cubes; an explicit
    # mesh with the same tets offers every tet to the same extractor.
    refuse_mesh_arrays(monkeypatch)        # the lattice builds neither array
    lattice = build_uniform_mesh(BOX, h)
    field = snap_small_values(interpolate_nodal(NARROW_BAND_FIELDS[name], lattice))
    surf = extract_surface(lattice, field)
    monkeypatch.undo()

    explicit = TetMesh(lattice.nodes, lattice.tets, h=lattice.h, box=lattice.box)
    assert lattice.is_kuhn_lattice and not explicit.is_kuhn_lattice
    full_field = NodalField(mesh=explicit, values=field.values)
    ref = extract_surface(explicit, full_field)
    for key in SURFACE_ARRAYS:
        npt.assert_array_equal(getattr(surf, key), getattr(ref, key), err_msg=key)
    if name in ("positive", "negative"):
        assert surf.n_triangles == 0
    else:
        assert surf.n_triangles > 0
    npt.assert_array_equal(
        plane_residuals(lattice, field, surf),
        plane_residuals(explicit, full_field, ref),
    )
    # the lattice offers only its band
    ids, nodes = lattice.band_tets(field.values > 0.0)
    # the 6 tets of a cube hold all its 8 corners
    corners = (field.values > 0.0)[lattice.tets].reshape(-1, 24)
    mixed = corners.any(axis=1) & ~corners.all(axis=1)
    npt.assert_array_equal(ids, np.flatnonzero(np.repeat(mixed, 6)))
    assert len(ids) < lattice.n_tets
    npt.assert_array_equal(nodes, lattice.tets[ids])
    all_ids, all_nodes = explicit.band_tets(field.values > 0.0)
    npt.assert_array_equal(all_ids, np.arange(explicit.n_tets))
    npt.assert_array_equal(all_nodes, explicit.tets)


@pytest.mark.parametrize("name", ["sphere_zc0.03", "plane"])
def test_narrow_band_on_a_non_cubic_box(name):
    box = BoxDomain((-2.0, -1.5, -1.25), (2.0, 1.5, 1.25))
    lattice = build_uniform_mesh(box, 0.125)
    assert lattice.n_cells == (32, 24, 20)
    field = snap_small_values(interpolate_nodal(NARROW_BAND_FIELDS[name], lattice))
    surf = extract_surface(lattice, field)
    explicit = TetMesh(lattice.nodes, lattice.tets, h=lattice.h, box=box)
    ref = extract_surface(explicit, NodalField(mesh=explicit, values=field.values))
    assert surf.n_triangles > 0
    for key in SURFACE_ARRAYS:
        npt.assert_array_equal(getattr(surf, key), getattr(ref, key), err_msg=key)


# --- the case table ----------------------------------------------------------


def _random_positive_tets(rng, n):
    """(n, 4, 3) random tets, positively oriented and far from flat."""
    p = rng.standard_normal((4 * n, 4, 3))
    e = p[:, 1:] - p[:, :1]
    vol = np.linalg.det(e) / 6.0
    p = p[np.abs(vol) > 0.05][:n]
    flip = np.linalg.det(p[:, 1:] - p[:, :1]) < 0
    p[flip] = p[flip][:, [0, 1, 3, 2]]
    assert len(p) == n
    return p


@pytest.mark.parametrize("code", range(1, 15))
def test_pattern_table_oracle(code):
    # Row c on a positive tet, and row 15 - c on a negative one, must list
    # exactly the sign-changing edges, consecutive corners sharing a face,
    # with the polygon normal along grad phi.
    rng = np.random.default_rng(code)
    bits = np.array([(code >> i) & 1 for i in range(4)], dtype=bool)
    positive = _random_positive_tets(rng, 50)
    negative = positive[:, [1, 0, 2, 3]]
    assert (np.linalg.det(negative[:, 1:] - negative[:, :1]) < 0).all()
    n_pos = bits.sum()
    assert _IS_TRIANGLE[code] == (n_pos in (1, 3))
    for p, row in ((positive, _PATTERNS[code]), (negative, _PATTERNS[15 - code])):
        corners = row[:3] if _IS_TRIANGLE[code] else row
        assert {frozenset(e) for e in corners} == {
            frozenset((i, j)) for i in range(4) for j in range(4)
            if bits[i] and not bits[j]}
        for k in range(len(corners)):
            assert len(set(corners[k]) | set(corners[k - 1])) == 3
        f = np.where(bits, 1.0, -1.0) * rng.uniform(0.05, 2.0, (len(p), 4))
        grad = np.linalg.solve(p[:, 1:] - p[:, :1],
                               (f[:, 1:] - f[:, :1])[..., None])[..., 0]
        a, b = corners[:, 0], corners[:, 1]
        t = f[:, a] / (f[:, a] - f[:, b])
        x = p[:, a] + t[..., None] * (p[:, b] - p[:, a])
        if _IS_TRIANGLE[code]:
            normal = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        else:
            normal = np.cross(x[:, 2] - x[:, 0], x[:, 3] - x[:, 1])
        assert (np.einsum("ij,ij->i", normal, grad) > 0.0).all()


def _rotate_min_first(tris):
    """Each row cyclically rotated so that its smallest id comes first."""
    shift = tris.argmin(axis=1)[:, None]
    return np.take_along_axis(tris, (shift + np.arange(3)) % 3, axis=1)


@pytest.mark.parametrize("zc", [0.03, 0.00025, 0.0])
@pytest.mark.parametrize("h", [0.5, 0.25])
def test_negatively_oriented_tets(h, zc):
    # Permuting each tet's nodes makes about half of them negative; the
    # table's row 15 - c must then give the same oriented surface.
    lattice = build_uniform_mesh(BOX, h)
    field = snap_small_values(
        interpolate_nodal(SphereLevelSet(center=(0.0, 0.0, zc)), lattice))
    ref = extract_surface(lattice, field)
    rng = np.random.default_rng(7)
    perm = np.argsort(rng.random((lattice.n_tets, 4)), axis=1)
    tets = np.take_along_axis(lattice.tets, perm, axis=1)
    explicit = TetMesh(lattice.nodes, tets, h=h, box=lattice.box)
    negative = tet_volumes(explicit) < 0
    assert 0.3 < negative[ref.tri_parent].mean() < 0.7
    surf = extract_surface(explicit, NodalField(mesh=explicit,
                                                values=field.values))
    for key in ("vertices", "vertex_edges", "vertex_t", "tri_parent",
                "tri_from_quad"):
        npt.assert_array_equal(getattr(surf, key), getattr(ref, key),
                               err_msg=key)
    npt.assert_array_equal(_rotate_min_first(surf.triangles),
                           _rotate_min_first(ref.triangles))


def test_zero_volume_cut_tet_raises():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    mesh = TetMesh(np.vstack([REF_NODES, flat]),
                   np.array([[0, 1, 2, 3], [4, 5, 6, 7]]), h=1.0,
                   box=BoxDomain((0, 0, 0), (1, 1, 1)))
    # the flat tet is not cut: the sound tet still extracts
    surf = extract_surface(mesh, NodalField(
        mesh=mesh, values=np.array([-1.0, -1, -1, 1, 1, 1, 1, 1])))
    assert surf.n_triangles == 1
    with pytest.raises(ValueError, match="zero volume"):
        extract_surface(mesh, NodalField(
            mesh=mesh, values=np.array([-1.0, -1, -1, 1, -1, 1, 1, 1])))


def test_extract_rejects_nodal_zeros_and_a_foreign_field():
    mesh = build_uniform_mesh(BOX, 0.5)
    # unsnapped, z = 0 vanishes on the whole z = 0 plane of 9 x 9 nodes
    field = interpolate_nodal(AnalyticLevelSet(lambda p: p[:, 2]), mesh)
    assert np.count_nonzero(field.values == 0.0) == 81
    with pytest.raises(ValueError, match="exact nodal zeros"):
        extract_surface(mesh, field)
    fine = snap_small_values(
        interpolate_nodal(SphereLevelSet(), build_uniform_mesh(BOX, 0.25)))
    with pytest.raises(ValueError, match="does not match the mesh"):
        extract_surface(mesh, fine)
    # a lattice of the same 9^3 nodes, its sphere centred in its own box
    shifted = build_uniform_mesh(BoxDomain((0, 0, 0), (4, 4, 4)), 0.5)
    assert shifted.n_nodes == mesh.n_nodes
    field = snap_small_values(
        interpolate_nodal(SphereLevelSet(center=(2.0, 2.0, 2.0)), shifted))
    surf = extract_surface(shifted, field)
    for other in (mesh, build_uniform_mesh(BOX, 1.0)):
        with pytest.raises(ValueError, match="does not match the mesh"):
            extract_surface(other, field)
        with pytest.raises(ValueError, match="does not match the mesh"):
            plane_residuals(other, field, surf)


# SHA-256 of the integer arrays of the sphere surface on BOX, pinned so
# that a refactor of the extraction shows any change of its output.
SURFACE_DIGESTS = {
    (0.125, 0.03): (
        "8dc2133340f1329cf91a6819b7d0be4dea5c006363868ca9d32f7d2e5e57d88d",
        "9710b434d48df9951f6231284347087f17b68d73c6bca4b2d881ae2b49c049ca",
        "534eae2681c0d239f314d2ff5529e1c5e3bed0da121ffc588e39580694defc33",
        "7c0f336504139de2193917aa0c0153a01e1497896c104b428b097d943bc057e4"),
    (0.125, 0.00025): (
        "240468d265c28c7cdec0b6b3b9e48697db80930241edc8b93ce5ada84f0b2a90",
        "5d8c1d60890a9f294843cc23c9f726a22f2a8597f26affde466b131d3beab2e5",
        "dce9555b96ba9f576109c71954c0c12ff280d01bb365a296b152cee137c46ab7",
        "f97020e8c5b7b4e7d39fb9746a3dac193727a49e2e7899745d6b624da4fd6491"),
    (0.125, 0.0): (
        "54d86c5c1cbd709171c355f4c5bb05a6ec90f810dc2e2ff92d0ae8c9b326da92",
        "ec016969ea52dc8b8b9a7085231f1ea082031bb598f27d37dd36c24d47ff1bdf",
        "aac32c9f9767befe295ebce644f77a6ec4a52e2c3bab475d613765186834c624",
        "30ed61e97cc0aad9b35eed3eda92ebbde0ef434730a23f3f323c2ce85858fa0f"),
    (0.0625, 0.03): (
        "d1c95defa4a6a24629ace9e9b1d07d2921239a8ab90948a6b72da7e504b08cf8",
        "3e970d027115be3b0ea62c42f688250dfe7b2dd7ad3376f21517172690bcfe72",
        "908a75a4225e4496863f3ae38d56bbc434cf94bc8341f50d1edd86a0cc722309",
        "ed26d10a4c37ab8a6893b2d84e508c80a012fbfc4fc95612d0924476f1baf5f4"),
    (0.0625, 0.00025): (
        "4e1451348dc4134f3a94501e4ccc6f6033cf6101b991ca13bc4d66e5c6c0d3e2",
        "b79230d84009db4110fad3e8aee096bedce734c0f2b1ed25be72c255f560d72a",
        "93862ed47f909173df410ace10993eb4997b470ea37e4cb2f0e02c02e2f4c7ae",
        "9b178445797491dff5b9e99ce638be00ad7655914c21b7bd5f7913c7fd5f6597"),
    (0.0625, 0.0): (
        "aacb01c3e9aea1b11ed1082581c3a9baee1e7527bcf74d7aaebdf9853f60d629",
        "1005ac4d1d6f7dc8644d186ec944baf09fffa8e8cd124ad76ae86d731168ed3d",
        "e613d3669981b291bd358be6756eda7d477657311c18d898a0d63a687d3312e7",
        "6c2b9efec65a3cfe6cb44c12f4a66e94ec6e5f614a24e05be721530523ab37bf"),
}


@pytest.mark.parametrize("h, zc", sorted(SURFACE_DIGESTS))
def test_surface_arrays_pinned(h, zc):
    _, surf = sphere_surface(h, zc=zc)
    for key, digest in zip(("triangles", "vertex_edges", "tri_parent",
                            "tri_from_quad"), SURFACE_DIGESTS[h, zc]):
        data = np.ascontiguousarray(getattr(surf, key), dtype="<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, key


def test_quad_halves_adjacent_in_output(sphere_h4):
    _, surf = sphere_h4
    quad_rows = np.flatnonzero(surf.tri_from_quad)
    # Quad halves come in consecutive pairs sharing the parent tet.
    assert quad_rows.size % 2 == 0
    first = quad_rows[0::2]
    npt.assert_array_equal(surf.tri_parent[first], surf.tri_parent[first + 1])


# --- quadrilateral splitting ------------------------------------------------


def test_split_kite_oracle():
    # Kite with its largest angle (126.87 deg) at vertex 0: diagonal 0-2.
    pts = np.array([[0, 0, 0], [2, 1, 0], [0, 3, 0], [-2, 1, 0]], dtype=float)
    tris = split_quad(np.array([0, 1, 2, 3]), pts)
    npt.assert_array_equal(tris, [[0, 1, 2], [0, 2, 3]])


def test_split_invariant_under_cyclic_rotation():
    pts = np.array([[0, 0, 0], [2, 1, 0], [0, 3, 0], [-2, 1, 0]], dtype=float)
    for shift in range(4):
        ids = np.roll(np.arange(4), -shift)
        tris = split_quad(ids, pts)
        assert {frozenset(t) for t in tris} == {frozenset({0, 1, 2}),
                                               frozenset({0, 2, 3})}


def test_split_square_tie_smallest_id():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    # All four angles equal: diagonal through the smallest global id.
    tris = split_quad(np.array([2, 1, 0, 3]), pts)   # id 0 sits at position 2
    assert all(0 in t for t in tris)
    # Same square scattered through a larger vertex table: the tie still
    # resolves to the smallest global id (0), not the smallest position.
    big = np.full((10, 3), 9.0)
    ids = np.array([4, 0, 8, 2])
    big[ids] = pts * 2.0 + 1.0
    tris2 = split_quad(ids, big)
    assert all(0 in t for t in tris2)


def _random_convex_planar_quads(rng, n):
    """Random convex planar quads: affine images of points on a circle."""
    theta = np.sort(rng.uniform(0.0, 2 * np.pi, size=(n, 4)), axis=1)
    uv = np.stack([np.cos(theta), np.sin(theta)], axis=2)      # (n, 4, 2)
    # random 2x2 with determinant bounded away from 0 keeps convexity
    T = rng.standard_normal((n, 2, 2))
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    bad = np.abs(det) < 0.1
    T[bad] = np.eye(2)
    uv = np.einsum("nij,nkj->nki", T, uv)
    # embed in a random plane
    q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    frame = q[:, :, :2]                                        # (n, 3, 2)
    pts = np.einsum("nij,nkj->nki", frame, uv)
    return pts + rng.standard_normal((n, 1, 3))


def _angles_arccos(p):
    """Quad inner angles via arccos (independent of the atan2 route)."""
    ang = np.empty(4)
    for i in range(4):
        u = p[(i - 1) % 4] - p[i]
        v = p[(i + 1) % 4] - p[i]
        c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        ang[i] = np.arccos(np.clip(c, -1.0, 1.0))
    return ang


def test_split_property_random_quads():
    rng = np.random.default_rng(42)
    quads = _random_convex_planar_quads(rng, 10_000)
    skipped = 0
    for p in quads:
        ang = _angles_arccos(p)
        order = np.argsort(ang)
        ids = rng.permutation(10)[:4]      # arbitrary global ids
        tris = split_quad(ids, _scatter(p, ids))
        # both halves: positive area, same orientation as the quad
        nq = np.cross(p[1] - p[0], p[2] - p[0])
        a_sum = 0.0
        pos = {int(i): k for k, i in enumerate(ids)}
        for t in tris:
            tp = p[[pos[int(v)] for v in t]]
            nt = np.cross(tp[1] - tp[0], tp[2] - tp[0])
            assert np.linalg.norm(nt) > 0.0
            assert nt @ nq > 0.0
            a_sum += 0.5 * np.linalg.norm(nt)
        a_quad = 0.5 * np.linalg.norm(
            np.cross(p[2] - p[0], p[3] - p[1]))
        npt.assert_allclose(a_sum, a_quad, rtol=1e-9)
        # diagonal through the largest angle (skip near-ties)
        if ang[order[3]] - ang[order[2]] < 1e-6:
            skipped += 1
            continue
        m = ids[order[3]]
        shared = set(tris[0]) & set(tris[1])
        assert int(m) in shared
    assert skipped < 200


def _scatter(p, ids):
    pts = np.zeros((int(max(ids)) + 1, 3))
    pts[np.asarray(ids)] = p
    return pts


def test_split_max_angle_not_increased():
    rng = np.random.default_rng(11)
    quads = _random_convex_planar_quads(rng, 2_000)
    for p in quads:
        ang_q = _angles_arccos(p)
        tris = split_quad(np.arange(4), p)
        for t in tris:
            tp = p[t]
            for i in range(3):
                u = tp[(i + 1) % 3] - tp[i]
                v = tp[(i + 2) % 3] - tp[i]
                c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                a = np.arccos(np.clip(c, -1.0, 1.0))
                assert a <= ang_q.max() + 1e-9


def test_from_arrays_surface():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    surf = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    npt.assert_allclose(surf.areas(), [0.5])
    npt.assert_allclose(surf.normals(), [[0, 0, 1]])
    assert not surf.is_watertight()    # open single triangle
    # no extraction provenance: zero edges and crossings, no parent tet
    npt.assert_array_equal(surf.vertex_edges, np.zeros((3, 2), dtype=np.int64))
    npt.assert_array_equal(surf.vertex_t, np.zeros(3))
    npt.assert_array_equal(surf.tri_parent, [-1])
    npt.assert_array_equal(surf.tri_from_quad, [False])
    assert surf.vertex_edges.dtype == surf.tri_parent.dtype == np.int64
    assert surf.tri_from_quad.dtype == bool


def test_from_arrays_index_validation():
    with pytest.raises(ValueError):
        SurfaceMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match=r"triangles must be \(F, 3\)"):
        SurfaceMesh(np.zeros((4, 3)), np.array([[0, 1, 2, 3]]))
    with pytest.raises(ValueError, match=r"triangles must be \(F, 3\)"):
        SurfaceMesh(np.zeros((3, 3)), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match=r"vertices must be \(N, 3\)"):
        SurfaceMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
