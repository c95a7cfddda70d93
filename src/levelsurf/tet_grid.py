"""Uniform tetrahedral grids of a box.

Each grid cube is subdivided into the six Kuhn tetrahedra sharing the cube's
main diagonal, so neighbouring cubes match face-to-face and the mesh is
conforming by construction.  Nodes are indexed lexicographically with x
running fastest.  The module also provides the two shape metrics used for
stability statements: the enclosing/inscribed ball-diameter ratio and the
minimum angle over face angles and edge-to-opposite-face angles.  A lattice
evaluates both, and :func:`tet_volumes`, on the six Kuhn tets of one cube
and never builds its ``tets``.  Every inner angle of a polygon in the
package (tet faces, surface triangles, cut quads, the cotangents of the
stiffness matrix) comes from one kernel, :func:`corner_cross_dot`, and
every Euclidean length of a 3-vector (edge lengths, triangle areas, unit
normals, distances to the sphere center) from another, :func:`norm3`.
Both live here because every other module can import this one, as do
:func:`_usable_cpus`, the one CPU count of every worker pool and thread
set, and :func:`_map_blocks`, which runs a per-triangle block loop on
those CPUs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxDomain",
    "TetMesh",
    "build_uniform_mesh",
    "tet_volumes",
    "shape_regularity",
    "min_angle_theta",
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
    lattice of ``box`` with spacing ``h``, ``TetMesh(None, None, h, box)`` as
    built by :func:`build_uniform_mesh`.  A lattice mesh stores neither
    nodes nor tets, only the three per-axis coordinate vectors
    ``box.lo[d] + h * arange(n_cells[d] + 1)``:

    * node ``i + (nx + 1) * (j + (ny + 1) * k)`` sits at grid point
      (i, j, k); :meth:`node_coords` gives the coordinates of any node ids,
      and ``nodes`` computes the full (N, 3) array anew on each access;
    * tet ``6 * cube + pattern`` is Kuhn tet ``pattern`` of grid cube
      ``cube`` (cubes numbered x fastest, like the nodes), and ``tets``
      likewise computes the full (M, 4) array on each access;
      :meth:`sample` walks the nodes by z-plane and :meth:`band_tets` the
      tets by cube, so no other module needs this layout.

    ValueError is raised for an ``h`` that is not finite and positive, a
    lattice ``h`` that fails :func:`build_uniform_mesh`'s conditions, and
    non-finite explicit nodes or out-of-range tet indices.

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
    n_nodes, n_tets : int
    is_kuhn_lattice : bool
        True for a lattice; it computes ``nodes`` and ``tets`` on access.
    n_cells : (3,) ints
        Number of grid cubes per axis; a lattice only.
    """

    def __init__(self, nodes: np.ndarray | None, tets: np.ndarray | None,
                 h: float, box: BoxDomain):
        if not 0.0 < h < float("inf"):
            raise ValueError(f"h must be finite and positive, got {h}")
        self.h = h
        self.box = box
        self.is_kuhn_lattice = tets is None
        if not self.is_kuhn_lattice:
            self._nodes = np.ascontiguousarray(nodes, dtype=np.float64)
            self._tets = np.ascontiguousarray(tets, dtype=np.int64)
            if self._nodes.ndim != 2 or self._nodes.shape[1] != 3:
                raise ValueError("nodes must be (N, 3)")
            if not np.all(np.isfinite(self._nodes)):
                raise ValueError("nodes must be finite")
            if self._tets.ndim != 2 or self._tets.shape[1] != 4:
                raise ValueError("tets must be (M, 4)")
            if self._tets.size and (self._tets.min() < 0
                                    or self._tets.max() >= len(self._nodes)):
                raise ValueError("tet indices out of range")
            self.n_nodes, self.n_tets = len(self._nodes), len(self._tets)
            return
        if nodes is not None:
            raise ValueError("a lattice mesh (tets=None) stores no nodes; "
                             "pass nodes=None")
        ext = box.extents
        # in Python floats, which overflow to inf without a warning
        n_nodes = math.prod(float(e) / float(h) + 1.0 for e in ext)
        if not n_nodes < 2.0**63:
            raise ValueError(f"h={h} is too fine: the grid would have "
                             f"{n_nodes:.3g} nodes, more than int64 node ids "
                             "can index")
        # the extents are positive: an h that divides them leaves a cube
        n = np.round(ext / h).astype(np.int64)
        if np.any(np.abs(n * h - ext) > 1e-9 * ext):
            raise ValueError(f"h={h} does not divide the box extents "
                             f"{tuple(ext.tolist())}")
        self.n_cells = tuple(int(v) for v in n)
        nx, ny, nz = self.n_cells
        self.n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
        self.n_tets = 6 * nx * ny * nz
        self._axes = [lo + h * np.arange(m + 1)
                      for lo, m in zip(box.lo, self.n_cells)]
        # node-id offsets of the 6 Kuhn tets from their cube's lowest corner
        corner = _CORNER_OFFSETS @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
        self._kuhn = corner[_KUHN_TETS]

    @property
    def tets(self) -> np.ndarray:
        """(M, 4) node ids per tet; a lattice computes them on each access."""
        if not self.is_kuhn_lattice:
            return self._tets
        # per cube, not tet_nodes(arange(n_tets)): the per-tet ids and their
        # temporaries would double the peak memory of this build.
        cubes = np.arange(self.n_tets // 6)
        return (self._cube_base(cubes)[:, None, None] + self._kuhn).reshape(-1, 4)

    @property
    def nodes(self) -> np.ndarray:
        """(N, 3) node coordinates; a lattice computes them on each access."""
        if self.is_kuhn_lattice:
            return self.node_coords(np.arange(self.n_nodes))
        return self._nodes

    def node_coords(self, ids: np.ndarray) -> np.ndarray:
        """Coordinates of the given node ids, shape ``ids.shape + (3,)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if not self.is_kuhn_lattice:
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

    def sample(self, fn) -> np.ndarray:
        """Values of ``fn``, (m, 3) points to m values, at the nodes by id.

        An explicit mesh passes its nodes in one call.  A lattice lays out
        the x and y columns of one z-plane once, then per z sets the z
        column and passes the plane's (nx + 1)(ny + 1) nodes; ``fn`` must
        not keep this reused buffer.  Raises ValueError unless every call
        returns one value per point.
        """
        if not self.is_kuhn_lattice:
            return _pointwise(fn, self._nodes)
        xs, ys, zs = self._axes
        plane = np.empty((len(xs) * len(ys), 3))
        plane[:, 0] = np.tile(xs, len(ys))
        plane[:, 1] = np.repeat(ys, len(xs))
        values = np.empty((len(zs), len(plane)))
        for k, z in enumerate(zs):
            plane[:, 2] = z
            values[k] = _pointwise(fn, plane)
        return values.reshape(-1)

    def band_tets(self, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids, (k,), and node ids, (k, 4), of the tets that a zero set with
        node signs ``positive`` (one bool per node) may cut, by increasing id.

        On a lattice these are the 6 tets of every cube whose 8 corners are
        neither all positive nor all negative, a narrow band around the
        zero set, and ``tets`` is never built.  An explicit mesh returns all
        of its tets.
        """
        if self.is_kuhn_lattice:
            nx, ny, nz = self.n_cells
            pos = np.asarray(positive, dtype=bool).reshape(nz + 1, ny + 1, nx + 1)
            # a cube is mixed where a corner's sign differs from corner 0's
            mixed = np.zeros((nz, ny, nx), dtype=bool)
            for i, j, k in _CORNER_OFFSETS[1:]:
                mixed |= pos[k:k + nz, j:j + ny, i:i + nx] != pos[:-1, :-1, :-1]
            ids = (6 * np.flatnonzero(mixed)[:, None] + np.arange(6)).ravel()
        else:
            ids = np.arange(self.n_tets, dtype=np.int64)
        return ids, self.tet_nodes(ids)

    def _cube_base(self, cubes: np.ndarray) -> np.ndarray:
        """Node id of the lowest corner of each lattice cube."""
        nx, ny, _ = self.n_cells
        ci, cj, ck = cubes % nx, (cubes // nx) % ny, cubes // (nx * ny)
        return ci + (nx + 1) * (cj + (ny + 1) * ck)

    def tet_nodes(self, tet_ids: np.ndarray) -> np.ndarray:
        """Node ids of the given tets, (len, 4), without building ``tets``."""
        tet_ids = np.asarray(tet_ids, dtype=np.int64)
        if not self.is_kuhn_lattice:
            return self._tets[tet_ids]
        return self._cube_base(tet_ids // 6)[:, None] + self._kuhn[tet_ids % 6]


def _pointwise(fn, points: np.ndarray) -> np.ndarray:
    """``fn(points)``, checked to hold one value per point."""
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"a pointwise function of {len(points)} points "
                         f"returned shape {values.shape}")
    return values


def _usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``), 1 on a
    platform without an affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return 1


def _map_blocks(fn, n: int, block: int) -> list:
    """``fn(rows)`` for consecutive slices ``rows`` covering range(n); the
    results in slice order.

    A loop of fewer than two full blocks runs here, one block per slice,
    and imports nothing.  A longer one runs on min(usable CPUs, n // block)
    threads, each slice ``block // threads`` long, so the slices in flight
    hold one block's temporaries; inside a multiprocessing child, whose
    parent has given the other CPUs to its siblings, it runs here too.
    ``fn`` may run on several threads at once, each on its own slice; the
    threads pay where it spends its time in numpy calls that release the
    GIL.  An error from ``fn`` is raised for the first failing slice,
    and every thread is joined before this returns or raises, so none is
    alive when a caller forks.
    """
    threads = 1
    if n >= 2 * block:
        import multiprocessing
        if multiprocessing.parent_process() is None:
            threads = min(_usable_cpus(), n // block)
    step = max(block // threads, 1)
    slices = [slice(start, start + step) for start in range(0, n, step)]
    if threads == 1:
        return [fn(rows) for rows in slices]
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(threads)
    try:
        return list(pool.map(fn, slices))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def build_uniform_mesh(box: BoxDomain, h: float) -> TetMesh:
    """Build the uniform Kuhn mesh of ``box`` with spacing ``h``.

    Every grid cube is split into 6 tetrahedra sharing the cube diagonal from
    its lowest to its highest corner; all cubes use the same diagonal
    direction so shared faces coincide and the mesh is conforming.  The
    mesh stores only its three axis coordinate vectors; the (n+1)^3 nodes
    and 6 n^3 tets are implicit in ``box`` and ``h``.

    Parameters
    ----------
    box : BoxDomain
    h : float
        Cube edge length, finite and positive.  Must divide every box
        extent to within a 1e-9 relative tolerance, into fewer than 2**63
        nodes (node ids are int64); :class:`TetMesh` raises ValueError
        otherwise.

    Returns
    -------
    TetMesh
    """
    return TetMesh(None, None, float(h), box)


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    """Signed volumes of all tets (positive for correctly oriented meshes);
    a lattice tiles those of cube 0 and never builds ``tets``."""
    p = _tet_shapes(mesh)
    vol = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    return np.tile(vol, mesh.n_tets // 6) if mesh.is_kuhn_lattice else vol


def _tet_shapes(mesh: TetMesh) -> np.ndarray:
    """Corners, (k, 4, 3), of one tet per distinct shape of ``mesh``.

    Every tet of a Kuhn lattice is a translate of one of the six tets of
    cube 0, and volumes and both quality measures are translation-invariant,
    so a lattice gives those six and never builds ``tets``.  An explicit
    mesh gives every one of its tets.
    """
    if mesh.is_kuhn_lattice:
        return mesh.node_coords(mesh.tet_nodes(np.arange(6)))
    return mesh.node_coords(mesh.tets)


def _face_normals(p: np.ndarray) -> np.ndarray:
    """Normal (b - a) x (c - a) of each face (a, b, c) = ``_OPP_FACES[f]``,
    opposite vertex f, of tets ``p`` (M, 4, 3); shape (M, 4, 3)."""
    f = p[:, _OPP_FACES]
    return np.cross(f[:, :, 1] - f[:, :, 0], f[:, :, 2] - f[:, :, 0])


def _enclosing_ball_diameters(p: np.ndarray) -> np.ndarray:
    """Diameter of the smallest ball containing each tet of ``p`` (M, 4, 3).

    The smallest enclosing ball of a point set is the circumball of some
    subset of it, centered in the subset's affine hull.  For each of the
    11 vertex subsets of size 2-4, the center q + E^T lam, with q the
    subset's first vertex and E the edges from q, solves the Gram system
    (E E^T) lam = diag(E E^T) / 2; the smallest such ball that contains
    the other vertices, to a relative 1e-12, wins.  The whole tet's
    circumsphere has no other vertex, so a candidate always exists.
    """
    best = np.full(len(p), np.inf)
    for k in (2, 3, 4):
        for sub in itertools.combinations(range(4), k):
            q = p[:, sub[0]]
            E = p[:, sub[1:]] - q[:, None]
            G = np.einsum("mij,mkj->mik", E, E)
            lam = np.linalg.solve(G, 0.5 * np.einsum("mii->mi", G)[..., None])
            c = q + np.einsum("mi,mij->mj", lam[..., 0], E)
            r = norm3(c - q)
            rest = p[:, [o for o in range(4) if o not in sub]] - c[:, None]
            ok = np.all(norm3(rest) <= r[:, None] * (1.0 + 1e-12) + 1e-300, axis=1)
            best = np.where(ok, np.minimum(best, r), best)
    return 2.0 * best


def shape_regularity(mesh: TetMesh) -> float:
    """Ball-diameter ratio max_S rho(S)/r(S) over the tets S of ``mesh``.

    rho(S) is the diameter of the smallest ball containing S, r(S) the
    diameter of the largest ball contained in S (2 * 3V / sum of face areas).
    A lattice evaluates only the six Kuhn tets of one cube.
    """
    p = _tet_shapes(mesh)
    vol = np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) / 6.0
    bad = np.flatnonzero(vol <= 1e-14 * max(mesh.h, 1e-30) ** 3)
    if bad.size:
        raise ValueError(f"degenerate tetrahedron at index {bad[0]}")
    area = 0.5 * norm3(_face_normals(p))
    area_sum = area[:, 3] + area[:, 2] + area[:, 1] + area[:, 0]
    inscribed = 2.0 * 3.0 * vol / area_sum
    return float((_enclosing_ball_diameters(p) / inscribed).max())


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


def _face_angles(p: np.ndarray) -> np.ndarray:
    """All 12 face angles of tets ``p`` (M, 4, 3): 4 faces x 3 corners,
    radians, (M, 12)."""
    return np.arctan2(*corner_cross_dot(p[:, _OPP_FACES])).reshape(len(p), 12)


def _edge_face_angles(p: np.ndarray) -> np.ndarray:
    """Angles between each edge at a vertex and the opposite face's plane.

    For every vertex v of tets ``p`` (M, 4, 3) and each of the 3 edges
    meeting v, the angle between that edge and the plane of the face
    opposite v: 12 angles per tet, radians, shape (M, 12).
    """
    n = _face_normals(p)
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

    Returns radians; for the Kuhn mesh the value is pi/6 independent of h,
    and a lattice evaluates only the six Kuhn tets of one cube.
    """
    p = _tet_shapes(mesh)
    return float(min(_face_angles(p).min(), _edge_face_angles(p).min()))
