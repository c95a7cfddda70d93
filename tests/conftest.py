import numpy as np
import pytest

from levelsurf import (
    BoxDomain,
    SphereLevelSet,
    SurfaceFunction,
    TetMesh,
    build_uniform_mesh,
    extract_surface,
    interpolate_nodal,
    snap_small_values,
)
from levelsurf.surface_extract import _split_quads_batch

BOX = BoxDomain((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))

# (box, h) of lattices checked bitwise against meshgrid_nodes: a non-cubic
# 6 x 4 x 2 grid, a box with negative lo and a step that is not a power of
# two, and a grid of 7 z-planes.
LATTICES = {
    "6x4x2": (BoxDomain((0, 0, 0), (3, 2, 1)), 0.5),
    "negative-lo": (BoxDomain((-1.3, -0.7, -2.1), (0.3, 0.9, -0.5)), 0.1),
    "7-planes": (BoxDomain((-2.0, -1.5, -1.25), (2.0, 1.5, 0.25)), 0.25),
}


def sphere_surface(h, zc=0.0, radius=1.0, box=BOX):
    """(spec, surface) for the standard sphere setup at mesh size h."""
    mesh = build_uniform_mesh(box, h)
    spec = SphereLevelSet(center=(0.0, 0.0, zc), radius=radius)
    field = snap_small_values(interpolate_nodal(spec, mesh))
    return spec, extract_surface(mesh, field)


def split_quad(quad_ids, points):
    """Split one cyclic quad into two triangles (max-angle rule), (2, 3) ids."""
    quad_ids = np.asarray(quad_ids, dtype=np.int64).reshape(1, 4)
    return _split_quads_batch(quad_ids, np.asarray(points, dtype=float))[0]


def refuse_mesh_arrays(monkeypatch):
    """Make ``TetMesh.tets`` and ``TetMesh.nodes`` raise until
    ``monkeypatch.undo()``: a lattice computes either array anew on each
    access, so this catches any build of them."""
    def refuse(self):
        raise AssertionError("the mesh's full node or tet array was built")

    monkeypatch.setattr(TetMesh, "tets", property(refuse))
    monkeypatch.setattr(TetMesh, "nodes", property(refuse))


def meshgrid_nodes(mesh):
    """Nodes of a lattice mesh, (N, 3) x fastest, built with meshgrid.

    The oracle for the node-free lattice: every coordinate a lattice mesh
    reports must equal this array bitwise.
    """
    nx, ny, nz = mesh.n_cells
    lo = np.asarray(mesh.box.lo)
    xs = lo[0] + mesh.h * np.arange(nx + 1)
    ys = lo[1] + mesh.h * np.arange(ny + 1)
    zs = lo[2] + mesh.h * np.arange(nz + 1)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])


def coordinate_function(axis=2):
    """u(x) = x_axis, with its ambient gradient."""
    e = np.zeros(3)
    e[axis] = 1.0
    return SurfaceFunction(
        value=lambda p: np.asarray(p, dtype=float)[..., axis],
        gradient=lambda p: np.broadcast_to(e, np.asarray(p).shape).copy(),
    )


def constant_function(c=1.0):
    """u(x) = c, with its zero gradient."""
    return SurfaceFunction(
        value=lambda p: np.full(np.asarray(p).shape[:-1], float(c)),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
    )


def vertex_support_areas(surface):
    """Area of the triangle patch around each vertex (|supp phi_i|)."""
    _, _, two_area = surface.tri_geometry(nondegenerate=True)
    out = np.zeros(surface.n_vertices)
    np.add.at(out, surface.triangles.ravel(), np.repeat(0.5 * two_area, 3))
    return out


def dirichlet_energy(surface, coeffs):
    """Integral of |in-plane gradient|^2 of the P1 field, by direct quadrature.

    Independent of the cotangent assembly; equals <A c, c> up to roundoff.
    The gradient is sum_i c_i grad(lambda_i), with grad(lambda_i) =
    nh x (opposite edge) / (2 A).
    """
    p, n, two_area = surface.tri_geometry(nondegenerate=True)
    nh = n / two_area[:, None]
    c = np.asarray(coeffs, dtype=float)[surface.triangles]
    grad = (
        c[:, [0]] * np.cross(nh, p[:, 2] - p[:, 1])
        + c[:, [1]] * np.cross(nh, p[:, 0] - p[:, 2])
        + c[:, [2]] * np.cross(nh, p[:, 1] - p[:, 0])
    ) / two_area[:, None]
    return float((np.einsum("ij,ij->i", grad, grad) * 0.5 * two_area).sum())


def random_triangles(rng, n, scale=1.0, min_area=1e-6):
    """(n, 3, 3) random non-degenerate triangle vertex coordinates."""
    tris = []
    while len(tris) < n:
        p = rng.standard_normal((3, 3)) * scale
        if 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])) > min_area:
            tris.append(p)
    return np.array(tris)


@pytest.fixture(scope="session")
def mesh_h2():
    return build_uniform_mesh(BOX, 0.5)


@pytest.fixture(scope="session")
def mesh_h4():
    return build_uniform_mesh(BOX, 0.25)


@pytest.fixture(scope="session")
def sphere_h4():
    return sphere_surface(0.25)


@pytest.fixture(scope="session")
def sphere_h4_shifted():
    return sphere_surface(0.25, zc=0.03)


@pytest.fixture(scope="session")
def sphere_h8():
    return sphere_surface(0.125)


@pytest.fixture(scope="session")
def sphere_h8_shifted():
    return sphere_surface(0.125, zc=0.03)
