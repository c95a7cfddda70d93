"""Uniform tetrahedral grids of a box.

Each grid cube is subdivided into the six Kuhn tetrahedra sharing the cube's
main diagonal, so neighbouring cubes match face-to-face and the mesh is
conforming by construction.  Nodes are indexed lexicographically with x
running fastest.  The module also provides the two shape metrics used for
stability statements: the enclosing/inscribed ball-diameter ratio and the
minimum angle over face angles and edge-to-opposite-face angles.  Every
inner angle of a polygon in the package (tet faces, surface triangles,
cut quads, the cotangents of the stiffness matrix) comes from one kernel,
:func:`corner_cross_dot`, and every Euclidean length of a 3-vector (edge
lengths, triangle areas, unit normals, distances to the sphere center)
from another, :func:`norm3`.  Both live here because every other module
can import this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxDomain",
    "TetMesh",
    "build_uniform_mesh",
    "tet_volumes",
    "corner_cross_dot",
    "norm3",
    "shape_regularity",
    "min_angle_theta",
    "tet_face_angles",
    "tet_edge_face_angles",
]

# Kuhn subdivision of the unit cube with corners numbered
#   0:(0,0,0) 1:(1,0,0) 2:(0,1,0) 3:(1,1,0) 4:(0,0,1) 5:(1,0,1) 6:(0,1,1) 7:(1,1,1)
# All six tets share the main diagonal 0-7; vertex order chosen so every
# signed volume is positive.
_KUHN_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 5, 1, 7],
        [0, 3, 2, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 6, 4, 7],
    ],
    dtype=np.int64,
)

_CORNER_OFFSETS = np.array(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
     [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    dtype=np.int64,
)

# local vertex triples of the face opposite each vertex
_OPP_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.int64)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lo, hi] in R^3."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("BoxDomain expects two 3-vectors")
        if not np.all(hi > lo):
            raise ValueError(f"empty box: lo={self.lo}, hi={self.hi}")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    @property
    def extents(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))


class TetMesh:
    """Conforming tetrahedral mesh of a box.

    A mesh is either explicit, ``TetMesh(nodes, tets, h, box)``, or the Kuhn
    lattice of ``n_cells`` grid cubes, ``TetMesh(None, None, h, box,
    n_cells)`` as built by :func:`build_uniform_mesh`.  A lattice mesh
    stores neither nodes nor tets, only the three per-axis coordinate
    vectors ``box.lo[d] + h * arange(n_cells[d] + 1)``:

    * node ``i + (nx + 1) * (j + (ny + 1) * k)`` sits at grid point
      (i, j, k); :meth:`node_coords` gives the coordinates of any node ids,
      and ``nodes`` computes the full (N, 3) array anew on each access;
    * tet ``6 * cube + pattern`` is Kuhn tet ``pattern`` of grid cube
      ``cube`` (cubes numbered x fastest, like the nodes), and ``tets`` is
      only built on first access.

    Attributes
    ----------
    nodes : (N, 3) float array
        Node coordinates, lexicographic order (x fastest, then y, then z).
    tets : (M, 4) int array
        Node indices per tetrahedron, positively oriented.
    h : float
        Grid spacing (cube edge length).
    box : BoxDomain
        The meshed domain.
    n_cells : (3,) ints
        Number of grid cubes per axis.
    """

    def __init__(self, nodes: np.ndarray | None, tets: np.ndarray | None,
                 h: float, box: BoxDomain,
                 n_cells: tuple[int, int, int] = (0, 0, 0)):
        self.h = h
        self.box = box
        self.n_cells = tuple(int(v) for v in n_cells)
        self._tets = None
        self._lattice = tets is None
        if self._lattice:
            if nodes is not None:
                raise ValueError("a lattice mesh (tets=None) stores no nodes; "
                                 "pass nodes=None")
            ext = box.extents
            n = np.array(self.n_cells)
            if n.min() < 1 or np.any(np.abs(n * h - ext) > 1e-9 * np.abs(ext)):
                raise ValueError(f"h={h} does not divide the box extents "
                                 f"{tuple(ext.tolist())} into {self.n_cells} "
                                 "cubes")
            self._axes = [lo + h * np.arange(m + 1)
                          for lo, m in zip(box.lo, self.n_cells)]
        else:
            self._nodes = np.ascontiguousarray(nodes, dtype=np.float64)
            if self._nodes.ndim != 2 or self._nodes.shape[1] != 3:
                raise ValueError("nodes must be (N, 3)")
            self._set_tets(tets)

    def _set_tets(self, tets) -> None:
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must be (M, 4)")
        if tets.size and (tets.min() < 0 or tets.max() >= self.n_nodes):
            raise ValueError("tet indices out of range")
        self._tets = tets

    @property
    def is_kuhn_lattice(self) -> bool:
        """True for a lattice mesh, whether or not ``tets`` was built yet."""
        return self._lattice

    @property
    def tets(self) -> np.ndarray:
        if self._tets is None:
            # tet_nodes(arange(n_tets)) per cube: the per-tet ids and their
            # temporaries would double the peak memory of this build.
            cubes = np.arange(self.n_tets // 6)
            self._set_tets((self._cube_base(cubes)[:, None, None]
                            + self._kuhn_offsets()).reshape(-1, 4))
        return self._tets

    @property
    def nodes(self) -> np.ndarray:
        """(N, 3) node coordinates; a lattice computes them on each access."""
        if self._lattice:
            return self.node_coords(np.arange(self.n_nodes))
        return self._nodes

    @property
    def n_nodes(self) -> int:
        if self._lattice:
            nx, ny, nz = self.n_cells
            return (nx + 1) * (ny + 1) * (nz + 1)
        return len(self._nodes)

    def node_coords(self, ids: np.ndarray) -> np.ndarray:
        """Coordinates of the given node ids, shape ``ids.shape + (3,)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if not self._lattice:
            return self._nodes[ids]
        nx, ny, _ = self.n_cells
        xs, ys, zs = self._axes
        out = np.empty(ids.shape + (3,))
        rest, i = np.divmod(ids, nx + 1)
        k, j = np.divmod(rest, ny + 1)
        out[..., 0] = xs[i]
        out[..., 1] = ys[j]
        out[..., 2] = zs[k]
        return out

    @property
    def n_tets(self) -> int:
        if self._lattice:
            nx, ny, nz = self.n_cells
            return 6 * nx * ny * nz
        return len(self._tets)

    def _cube_base(self, cubes: np.ndarray) -> np.ndarray:
        """Node id of the lowest corner of each lattice cube."""
        nx, ny, _ = self.n_cells
        ci, cj, ck = cubes % nx, (cubes // nx) % ny, cubes // (nx * ny)
        return ci + (nx + 1) * (cj + (ny + 1) * ck)

    def _kuhn_offsets(self) -> np.ndarray:
        """Node-id offsets of the 6 Kuhn tets from their cube's lowest corner."""
        nx, ny, _ = self.n_cells
        corner = _CORNER_OFFSETS @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
        return corner[_KUHN_TETS]

    def tet_nodes(self, tet_ids: np.ndarray) -> np.ndarray:
        """Node ids of the given tets, (len, 4), without building ``tets``."""
        tet_ids = np.asarray(tet_ids, dtype=np.int64)
        if not self._lattice:
            return self._tets[tet_ids]
        return (self._cube_base(tet_ids // 6)[:, None]
                + self._kuhn_offsets()[tet_ids % 6])

    def tet_coords(self) -> np.ndarray:
        """Vertex coordinates per tet, shape (M, 4, 3)."""
        return self.node_coords(self.tets)

    def face_multiplicities(self) -> np.ndarray:
        """Occurrence count of every distinct triangular face.

        Conformity means each count is 1 (boundary face) or 2 (interior face).
        """
        faces = self.tets[:, _OPP_FACES].reshape(-1, 3)
        faces = np.sort(faces, axis=1)
        _, counts = np.unique(faces, axis=0, return_counts=True)
        return counts


def build_uniform_mesh(box: BoxDomain, h: float) -> TetMesh:
    """Build the uniform Kuhn mesh of ``box`` with spacing ``h``.

    Every grid cube is split into 6 tetrahedra sharing the cube diagonal from
    its lowest to its highest corner; all cubes use the same diagonal
    direction so shared faces coincide and the mesh is conforming.  The
    mesh stores only its three axis coordinate vectors; the (n+1)^3 nodes
    and 6 n^3 tets are implicit in ``n_cells``.

    Parameters
    ----------
    box : BoxDomain
    h : float
        Cube edge length, finite and positive.  Must divide every box
        extent to within a 1e-9 relative tolerance, into fewer than 2**63
        nodes (node ids are int64).

    Returns
    -------
    TetMesh
    """
    if not 0.0 < h < float("inf"):
        raise ValueError(f"h must be finite and positive, got {h}")
    # in Python floats, which overflow to inf without a warning
    n_nodes = math.prod(float(e) / float(h) + 1.0 for e in box.extents)
    if not n_nodes < 2.0**63:
        raise ValueError(f"h={h} is too fine: the grid would have {n_nodes:.3g} "
                         "nodes, more than int64 node ids can index")
    n_cells = np.round(box.extents / h).astype(np.int64)
    return TetMesh(None, None, h=float(h), box=box, n_cells=tuple(n_cells))


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    """Signed volumes of all tets (positive for correctly oriented meshes)."""
    p = mesh.tet_coords()
    e = p[:, 1:] - p[:, :1]
    return np.linalg.det(e) / 6.0


def _check_nondegenerate(vol: np.ndarray, scale: float) -> None:
    bad = np.flatnonzero(np.abs(vol) <= 1e-14 * scale**3)
    if bad.size:
        raise ValueError(f"degenerate tetrahedron at index {bad[0]}")


def _face_frames(p: np.ndarray):
    """Corner a, edges u = b - a and v = c - a, and normal u x v of each face.

    ``p`` has shape (M, 4, 3); face f is the triple (a, b, c) =
    ``_OPP_FACES[f]``, opposite vertex f.  Each array is (M, 4, 3).
    """
    f = p[:, _OPP_FACES]
    a = f[:, :, 0]
    u = f[:, :, 1] - a
    v = f[:, :, 2] - a
    return a, u, v, np.cross(u, v)


def _enclosing_ball_diameters(p: np.ndarray, a: np.ndarray, u: np.ndarray,
                              v: np.ndarray) -> np.ndarray:
    """Diameter of the smallest ball containing each tet.

    ``p`` has shape (M, 4, 3) and (a, u, v) are its faces' frames.
    Candidates: balls spanned by each edge (diameter = edge), circumcircles
    of each face, and the circumsphere; the smallest candidate containing
    all four vertices wins.
    """
    M = len(p)
    tol = 1.0 + 1e-12
    best = np.full(M, np.inf)

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i, j in pairs:
        c = 0.5 * (p[:, i] + p[:, j])
        r = 0.5 * norm3(p[:, i] - p[:, j])
        ok = np.ones(M, dtype=bool)
        for o in range(4):
            if o in (i, j):
                continue
            ok &= norm3(p[:, o] - c) <= r * tol + 1e-300
        best = np.where(ok, np.minimum(best, r), best)

    # circumcircle of face f; the vertex it must also contain is vertex f
    uu = np.einsum("...j,...j->...", u, u)
    vv = np.einsum("...j,...j->...", v, v)
    uv = np.einsum("...j,...j->...", u, v)
    det = uu * vv - uv * uv
    safe = np.abs(det) > 1e-300
    alpha = np.where(safe, (0.5 * (uu * vv - vv * uv)) / np.where(safe, det, 1.0), 0.0)
    beta = np.where(safe, (0.5 * (uu * vv - uu * uv)) / np.where(safe, det, 1.0), 0.0)
    c = a + alpha[..., None] * u + beta[..., None] * v
    r = norm3(a - c)
    ok = safe & (norm3(p - c) <= r * tol + 1e-300)
    best = np.minimum(best, np.where(ok, r, np.inf).min(axis=1))

    # circumsphere: 2 (p_i - p_0) . c = |p_i|^2 - |p_0|^2
    A = 2.0 * (p[:, 1:] - p[:, :1])
    rhs = np.einsum("ijk,ijk->ij", p[:, 1:], p[:, 1:]) - np.einsum(
        "ik,ik->i", p[:, 0], p[:, 0]
    )[:, None]
    c = np.linalg.solve(A, rhs[..., None])[..., 0]
    r = norm3(p[:, 0] - c)
    best = np.minimum(best, r)

    return 2.0 * best


def shape_regularity(mesh: TetMesh, per_tet: bool = False):
    """Ball-diameter ratio max_S rho(S)/r(S).

    rho(S) is the diameter of the smallest ball containing S, r(S) the
    diameter of the largest ball contained in S (2 * 3V / sum of face areas).

    Returns the maximum over all tets, or the per-tet array if ``per_tet``.
    """
    p = mesh.tet_coords()
    vol = np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) / 6.0
    _check_nondegenerate(vol, scale=max(mesh.h, 1e-30))

    a, u, v, n = _face_frames(p)
    area = 0.5 * norm3(n)
    area_sum = area[:, 3] + area[:, 2] + area[:, 1] + area[:, 0]
    inscribed = 2.0 * 3.0 * vol / area_sum

    ratio = _enclosing_ball_diameters(p, a, u, v) / inscribed
    return ratio if per_tet else float(ratio.max())


def corner_cross_dot(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|u x v|, u . v) at every corner of cyclic polygons ``p``, (..., k, 3).

    At corner i, u points to corner i + 1 and v to corner i - 1 (mod k).
    The inner angle is ``arctan2(|u x v|, u . v)``, accurate near 0 and pi;
    its cotangent is ``u . v / |u x v|``.  Both arrays have shape (..., k).
    """
    k = p.shape[-2]
    cross = np.empty(p.shape[:-1])
    dot = np.empty(p.shape[:-1])
    for i in range(k):
        u = p[..., (i + 1) % k, :] - p[..., i, :]
        v = p[..., (i - 1) % k, :] - p[..., i, :]
        cross[..., i] = norm3(np.cross(u, v))
        dot[..., i] = np.einsum("...j,...j->...", u, v)
    return cross, dot


def norm3(x: np.ndarray) -> np.ndarray:
    """Euclidean length of 3-vectors along the last axis, (..., 3) -> (...).

    Bitwise equal to ``np.linalg.norm(x, axis=-1)``, which also squares and
    sums the three components in order before one square root, but without
    its generic reduction, which costs about three times as much here.  As
    there, a length past the float range overflows to inf.
    """
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def tet_face_angles(mesh: TetMesh) -> np.ndarray:
    """All 12 face angles per tet (4 faces x 3 corners), radians, (M, 12)."""
    faces = mesh.tet_coords()[:, _OPP_FACES]
    return np.arctan2(*corner_cross_dot(faces)).reshape(len(faces), 12)


def tet_edge_face_angles(mesh: TetMesh) -> np.ndarray:
    """Angles between each edge at a vertex and the opposite face's plane.

    For every vertex v and each of the 3 edges meeting v, the angle between
    that edge and the plane of the face opposite v: 12 angles per tet,
    radians, shape (M, 12).
    """
    p = mesh.tet_coords()
    n = _face_frames(p)[3]
    nn = norm3(n)
    if np.any(nn <= 1e-300):
        raise ValueError("degenerate tetrahedron face")
    n = n / nn[..., None]
    # d[:, v, i]: unit edge from vertex v to vertex i of its opposite face
    d = p[:, _OPP_FACES] - p[:, :, None]
    d = d / norm3(d)[..., None]
    s = np.abs(np.einsum("...ij,...j->...i", d, n))
    return np.arcsin(np.clip(s, -1.0, 1.0)).reshape(len(p), 12)


def min_angle_theta(mesh: TetMesh) -> float:
    """Minimum over all tets of face angles and edge-to-opposite-face angles.

    Returns radians; for the Kuhn mesh the value is pi/6 independent of h.
    """
    return float(
        min(tet_face_angles(mesh).min(), tet_edge_face_angles(mesh).min())
    )
