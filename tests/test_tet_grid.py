import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from levelsurf.tet_grid import (
    BoxDomain,
    TetMesh,
    _edge_face_angles,
    _enclosing_ball_diameters,
    _face_angles,
    build_uniform_mesh,
    min_angle_theta,
    norm3,
    shape_regularity,
    tet_volumes,
)

from conftest import (LATTICES, face_multiplicities, meshgrid_nodes,
                      refuse_mesh_arrays)

# Frozen oracle values (brute force over all angles of the cube subdivision,
# and closed forms for the regular tetrahedron).
KUHN_ALPHA = np.sqrt(3.0) * (np.sqrt(2.0) + 1.0)          # ~4.18154
KUHN_MIN_ANGLE = np.radians(30.0)                          # edge-face minimum
KUHN_MIN_FACE_ANGLE = np.arctan(1.0 / np.sqrt(2.0))       # ~35.264 deg
REGULAR_MIN_ANGLE = np.arcsin(np.sqrt(2.0 / 3.0))          # ~54.736 deg


def unit_cube_mesh(h=1.0):
    return build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), h)


def regular_tet_mesh():
    # Alternate cube corners give a regular tetrahedron with edge sqrt(2).
    nodes = np.array([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
    return TetMesh(nodes, np.array([[0, 1, 2, 3]]), h=1.0,
                   box=BoxDomain((0, 0, 0), (1, 1, 1)))


def test_single_cube_counts():
    mesh = unit_cube_mesh()
    assert mesh.n_nodes == 8
    assert mesh.n_tets == 6


def test_box_counts():
    mesh = build_uniform_mesh(BoxDomain((-2, -2, -2), (2, 2, 2)), 0.5)
    assert mesh.n_nodes == 9 ** 3
    assert mesh.n_tets == 6 * 8 ** 3
    assert mesh.n_cells == (8, 8, 8)


def test_positive_orientation():
    mesh = build_uniform_mesh(BoxDomain((-2, -2, -2), (2, 2, 2)), 0.5)
    p = mesh.node_coords(mesh.tets)
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    assert det.min() > 0.0


def test_volume_partition(mesh_h4):
    total = tet_volumes(mesh_h4).sum()
    npt.assert_allclose(total, mesh_h4.box.volume, rtol=1e-12)


def test_tet_volume_value():
    # Each Kuhn tet of a unit cube has volume 1/6.
    npt.assert_allclose(tet_volumes(unit_cube_mesh()), 1.0 / 6.0, rtol=1e-13)


@pytest.mark.parametrize("box, h, exact", [
    (BoxDomain((-2, -2, -2), (2, 2, 2)), 0.5, True),
    (BoxDomain((-2, -2, -2), (2, 2, 2)), 0.25, True),
    (BoxDomain((-2.0, -1.5, -1.25), (2.0, 1.5, 1.25)), 0.5, True),
    (BoxDomain((-2.0, -1.5, -1.25), (2.0, 1.5, 1.25)), 0.25, True),
    (BoxDomain((0, 0, 0), (1, 1, 1)), 0.1, False),
])
def test_lattice_volumes_match_explicit_copy(box, h, exact, monkeypatch):
    lattice = build_uniform_mesh(box, h)
    ref = tet_volumes(TetMesh(lattice.nodes, lattice.tets, h=h, box=box))

    def refuse(self):
        raise AssertionError("tet_volumes built the lattice's tets")

    monkeypatch.setattr(TetMesh, "tets", property(refuse))
    vol = tet_volumes(build_uniform_mesh(box, h))
    if exact:
        npt.assert_array_equal(vol, ref)
    else:
        npt.assert_allclose(vol, ref, rtol=1e-14, atol=0)


def test_face_multiplicities():
    mesh = build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 0.25)
    counts = face_multiplicities(mesh)
    assert set(counts.tolist()) <= {1, 2}
    n = 4
    assert (counts == 1).sum() == 12 * n ** 2   # 6 box faces, 2n^2 tris each


def test_nondivisible_box_rejected():
    with pytest.raises(ValueError):
        build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 0.3)


def test_bad_h_rejected():
    with pytest.raises(ValueError):
        build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), -0.5)
    with pytest.raises(ValueError):
        build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 0.0)


def test_bad_box_rejected():
    with pytest.raises(ValueError):
        BoxDomain((0, 0, 0), (1, -1, 1))


def test_shape_regularity_kuhn():
    npt.assert_allclose(shape_regularity(unit_cube_mesh()), KUHN_ALPHA,
                        rtol=1e-12)


def test_shape_regularity_h_independent():
    a2 = shape_regularity(build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 0.5))
    a4 = shape_regularity(build_uniform_mesh(BoxDomain((0, 0, 0), (1, 1, 1)), 0.25))
    npt.assert_allclose(a2, KUHN_ALPHA, rtol=1e-12)
    npt.assert_allclose(a4, KUHN_ALPHA, rtol=1e-12)


def test_shape_regularity_translation_invariant():
    mesh = build_uniform_mesh(BoxDomain((5, -3, 11), (6, -2, 12)), 1.0)
    npt.assert_allclose(shape_regularity(mesh), KUHN_ALPHA, rtol=1e-12)


def test_shape_regularity_regular_tet():
    # Circumscribed/inscribed ball diameter ratio of a regular tet is 3.
    npt.assert_allclose(shape_regularity(regular_tet_mesh()), 3.0, rtol=1e-12)


def test_shape_regularity_per_tet(mesh_h4):
    # The main diagonal of its cube is a diameter of every Kuhn tet's
    # smallest enclosing ball: the other two vertices see it at right angles.
    rho = _enclosing_ball_diameters(mesh_h4.node_coords(mesh_h4.tets))
    assert rho.shape == (mesh_h4.n_tets,)
    npt.assert_allclose(rho, np.sqrt(3.0) * mesh_h4.h, rtol=1e-12)


def test_lattice_quality_builds_no_tets(monkeypatch):
    refuse_mesh_arrays(monkeypatch)
    mesh = build_uniform_mesh(BoxDomain((-2, -2, -2), (2, 2, 2)), 1 / 64)
    npt.assert_allclose(shape_regularity(mesh), KUHN_ALPHA, rtol=1e-12)
    npt.assert_allclose(min_angle_theta(mesh), KUHN_MIN_ANGLE, rtol=1e-12)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_quality_matches_explicit_copy(name):
    # The explicit copy evaluates every tet, the lattice only the six of
    # cube 0; the other cubes' tets translate those only up to the rounding
    # of lo + h * i.
    mesh = build_uniform_mesh(*LATTICES[name])
    copy = TetMesh(mesh.nodes, mesh.tets, mesh.h, mesh.box)
    npt.assert_allclose(shape_regularity(mesh), shape_regularity(copy),
                        rtol=1e-12)
    npt.assert_allclose(min_angle_theta(mesh), min_angle_theta(copy),
                        rtol=1e-12)


def _smallest_ball_slsqp(p):
    """(center, radius) of the smallest ball containing the points p, by
    SLSQP on min t subject to |p_i - c|^2 <= t: no vertex subsets."""
    c0 = p.mean(axis=0)
    x0 = np.append(c0, ((p - c0) ** 2).sum(axis=1).max())
    res = minimize(
        lambda x: x[3], x0, jac=lambda x: np.array([0.0, 0.0, 0.0, 1.0]),
        method="SLSQP", options={"ftol": 1e-12, "maxiter": 500},
        constraints={"type": "ineq",
                     "fun": lambda x: x[3] - ((p - x[:3]) ** 2).sum(axis=1),
                     "jac": lambda x: np.column_stack([2.0 * (p - x[:3]),
                                                       np.ones(len(p))])})
    # Near the optimum its line search may stop short of ftol; the ball
    # must still contain every point, and the test compares its size.
    assert ((p - res.x[:3]) ** 2).sum(axis=1).max() <= res.x[3] * (1 + 1e-10)
    return res.x[:3], np.sqrt(res.x[3])


def test_enclosing_ball_matches_optimizer():
    rng = np.random.default_rng(7)
    p = rng.standard_normal((200, 4, 3))
    p = p[np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) > 1e-3]
    got = _enclosing_ball_diameters(p)
    want, on_sphere = [], []
    for q in p:
        c, r = _smallest_ball_slsqp(q)
        want.append(2.0 * r)
        on_sphere.append(int((norm3(q - c) >= r * (1.0 - 1e-6)).sum()))
    npt.assert_allclose(got, want, rtol=1e-8)
    # edge balls (2 vertices on the sphere), face balls (3) and circumspheres
    assert set(on_sphere) == {2, 3, 4}


def test_degenerate_tet_reported():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    mesh = TetMesh(nodes, np.array([[0, 1, 2, 3]]), h=1.0,
                   box=BoxDomain((0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="degenerate tetrahedron at index 0"):
        shape_regularity(mesh)


def test_min_angle_kuhn():
    npt.assert_allclose(min_angle_theta(unit_cube_mesh()), KUHN_MIN_ANGLE,
                        rtol=1e-12)


def test_min_face_angle_kuhn():
    mesh = unit_cube_mesh()
    face = _face_angles(mesh.node_coords(mesh.tets))
    npt.assert_allclose(face.min(), KUHN_MIN_FACE_ANGLE, rtol=1e-12)


def test_angle_shapes(mesh_h2):
    p = mesh_h2.node_coords(mesh_h2.tets)
    assert _face_angles(p).shape == (mesh_h2.n_tets, 12)
    assert _edge_face_angles(p).shape == (mesh_h2.n_tets, 12)


def test_min_angle_regular_tet():
    mesh = regular_tet_mesh()
    npt.assert_allclose(min_angle_theta(mesh), REGULAR_MIN_ANGLE, rtol=1e-12)
    npt.assert_allclose(_face_angles(mesh.node_coords(mesh.tets)),
                        np.pi / 3.0, rtol=1e-12)


def test_face_angle_sums(mesh_h2):
    # The three angles of every tet face sum to pi.
    ang = _face_angles(mesh_h2.node_coords(mesh_h2.tets))
    ang = ang.reshape(mesh_h2.n_tets, 4, 3)
    npt.assert_allclose(ang.sum(axis=2), np.pi, rtol=1e-12)


def test_lexicographic_node_order():
    mesh = unit_cube_mesh()
    # x varies fastest: node 1 is (1,0,0), node 2 is (0,1,0), node 4 is (0,0,1).
    npt.assert_array_equal(mesh.nodes[1], [1, 0, 0])
    npt.assert_array_equal(mesh.nodes[2], [0, 1, 0])
    npt.assert_array_equal(mesh.nodes[4], [0, 0, 1])


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_node_coords_match_meshgrid(name):
    box, h = LATTICES[name]
    mesh = build_uniform_mesh(box, h)
    ref = meshgrid_nodes(mesh)
    assert mesh.n_nodes == len(ref)
    npt.assert_array_equal(mesh.nodes, ref)
    ids = np.random.default_rng(5).integers(0, mesh.n_nodes, (7, 4))
    npt.assert_array_equal(mesh.node_coords(ids), ref[ids])
    npt.assert_array_equal(mesh.node_coords(mesh.tets), ref[mesh.tets])
    assert mesh.nodes is not mesh.nodes        # computed, never cached


def test_main_diagonal_shared():
    # All 6 tets of the Kuhn split contain the cube diagonal 0 -> 7.
    mesh = unit_cube_mesh()
    for tet in mesh.tets:
        assert 0 in tet and 7 in tet


def test_lattice_tets_match_per_cube_loop(monkeypatch):
    # Non-cubic grid (6 x 4 x 2 cubes) so that axis mix-ups show.
    refuse_mesh_arrays(monkeypatch)        # n_tets and tet_nodes build nothing
    mesh = build_uniform_mesh(BoxDomain((0, 0, 0), (3, 2, 1)), 0.5)
    nx, ny, nz = mesh.n_cells
    assert (nx, ny, nz) == (6, 4, 2)
    assert mesh.n_tets == 6 * nx * ny * nz

    def node(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    kuhn = [[0, 1, 3, 7], [0, 5, 1, 7], [0, 3, 2, 7],
            [0, 2, 6, 7], [0, 4, 5, 7], [0, 6, 4, 7]]
    ref = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                corners = [node(i + dx, j + dy, k + dz)
                           for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
                ref += [[corners[c] for c in tet] for tet in kuhn]
    ids = np.array([0, 5, 6, 47, 100, mesh.n_tets - 1])
    npt.assert_array_equal(mesh.tet_nodes(ids), np.array(ref)[ids])
    monkeypatch.undo()
    npt.assert_array_equal(mesh.tets, ref)
    npt.assert_array_equal(mesh.tet_nodes(ids), mesh.tets[ids])
    assert mesh.tets is not mesh.tets      # computed, never cached
    assert mesh.is_kuhn_lattice


def test_lattice_mesh_validation():
    nodes = np.zeros((8, 3))
    box = BoxDomain((0, 0, 0), (1, 1, 1))
    mesh = TetMesh(None, None, h=0.5, box=box)
    assert mesh.n_cells == (2, 2, 2) and mesh.n_tets == 48
    for h in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(ValueError, match="finite and positive"):
            TetMesh(None, None, h=h, box=box)
    with pytest.raises(ValueError, match="too fine"):
        TetMesh(None, None, h=1e-7, box=box)
    # 1e-9 relative is the tolerance; an h past the extent leaves no cube
    assert TetMesh(None, None, h=0.5 * (1 + 1e-10), box=box).n_cells == (2, 2, 2)
    for h in (0.5 * (1 + 1e-8), 0.4, 2.0):
        with pytest.raises(ValueError, match="does not divide"):
            TetMesh(None, None, h=h, box=box)
    with pytest.raises(ValueError, match="stores no nodes"):
        TetMesh(nodes, None, h=1.0, box=box)
    with pytest.raises(ValueError, match="out of range"):
        TetMesh(nodes[:4], np.array([[0, 1, 2, 4]]), h=1.0, box=box)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_explicit_mesh_rejects_non_finite_input(bad):
    # A non-finite node would turn tet_volumes into NaN with a RuntimeWarning,
    # and interpolate_nodal would then blame the field; a NaN h would turn
    # shape_regularity's degenerate-tet check into a raw LinAlgError.
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tets, box = np.array([[0, 1, 2, 3]]), BoxDomain((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="h must be finite and positive"):
        TetMesh(nodes, tets, h=bad, box=box)
    nodes[2, 1] = bad
    with pytest.raises(ValueError, match="nodes must be finite"):
        TetMesh(nodes, tets, h=1.0, box=box)


@pytest.mark.parametrize("shape", [(4000, 3), (1000, 4, 3)])
def test_norm3_bitwise_equals_linalg_norm(shape):
    rng = np.random.default_rng(3)
    # one magnitude from 1e-300 to 1e300 per vector, so the three squares
    # are comparable and the order of their sum shows in the last bit;
    # every other vector also spreads its components over 6 decades
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(
        -297, 297, shape[:-1] + (1,))
    x[::2] *= 10.0 ** rng.uniform(-3, 3, x[::2].shape)
    flat = x.reshape(-1, 3)
    flat[::7, 0] = np.inf
    flat[::11, 1] = -np.inf
    flat[::13, 2] = np.nan
    flat[::5, 1] = -0.0
    flat[::17] = -0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = norm3(x), np.linalg.norm(x, axis=-1)
    assert got.shape == want.shape == shape[:-1]
    # NaN payloads included: the bit patterns must match exactly
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
