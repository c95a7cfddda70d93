"""Watertight surface triangulations of the zero level set of a P1 field.

Each tetrahedron with a strict sign pattern is cut by the plane where the
linear interpolant vanishes: one lone sign gives a triangle, a 2+2 split
gives a convex planar quadrilateral.  The cuts come from one marching-
tetrahedra table, ``_PATTERNS``: row c, for the sign code c (bit i set when
local node i has phi > 0), lists the cut edges in cyclic polygon order,
oriented so that on a positively oriented tet the polygon normal points
from phi < 0 to phi > 0.  Row 15 - c holds the same cut in reverse order,
so a negatively oriented tet takes that row.  Cut vertices live on grid
edges and are shared between neighbouring tets through a global edge key,
which makes the triangulation watertight by construction.  Quadrilaterals
are split along the diagonal at their largest inner angle, which keeps all
surface angles bounded away from pi.

:func:`extract_surface` returns the :class:`SurfaceMesh`, one triangle or
two quad halves per cut tet in tet order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .level_set import NodalField
from .tet_grid import TetMesh, corner_cross_dot, norm3

__all__ = [
    "SurfaceMesh",
    "extract_surface",
]


@dataclass
class SurfaceMesh:
    """Oriented watertight triangulation of the extracted surface.

    Only ``vertices`` and ``triangles`` are required; a surface built from
    them alone gets no extraction provenance: zero vertex edges and
    crossings, parent -1 and no quad halves.
    """

    vertices: np.ndarray                    # (Nv, 3)
    triangles: np.ndarray                   # (F, 3) int
    vertex_edges: np.ndarray | None = None  # (Nv, 2) parent grid edge (sorted node pair)
    vertex_t: np.ndarray | None = None      # (Nv,) crossing parameter
    tri_parent: np.ndarray | None = None    # (F,) parent tet index
    tri_from_quad: np.ndarray | None = None  # (F,) bool, True for quad halves

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (N, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (F, 3)")
        nv, nf = len(self.vertices), len(self.triangles)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= nv
        ):
            raise ValueError("triangle indices out of range")
        if self.vertex_edges is None:
            self.vertex_edges = np.zeros((nv, 2), dtype=np.int64)
        if self.vertex_t is None:
            self.vertex_t = np.zeros(nv)
        if self.tri_parent is None:
            self.tri_parent = np.full(nf, -1, dtype=np.int64)
        if self.tri_from_quad is None:
            self.tri_from_quad = np.zeros(nf, dtype=bool)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def tri_geometry(self, nondegenerate: bool = False,
                     rows: slice = slice(None)):
        """Corners p (F, 3, 3), n = (p1 - p0) x (p2 - p0) and |n| = 2 |T|.

        Covers the triangles ``rows`` (all by default).  With
        ``nondegenerate`` a zero-area triangle raises ValueError.
        """
        p = self.vertices[self.triangles[rows]]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        two_area = norm3(n)
        if nondegenerate and np.any(two_area <= 0.0):
            raise ValueError("degenerate (zero-area) surface triangle")
        return p, n, two_area

    def areas(self) -> np.ndarray:
        return 0.5 * self.tri_geometry()[2]

    def normals(self) -> np.ndarray:
        """Unit normals in triangle orientation (phi < 0 side to phi > 0)."""
        _, n, two_area = self.tri_geometry(nondegenerate=True)
        return n / two_area[:, None]

    def edge_multiplicities(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct undirected triangle edges and their occurrence counts."""
        e = self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        e = np.sort(e, axis=1)
        edges, counts = np.unique(e, axis=0, return_counts=True)
        return edges, counts

    def is_watertight(self) -> bool:
        """True when every edge is shared by exactly two triangles."""
        _, counts = self.edge_multiplicities()
        return bool(np.all(counts == 2))

    def orientation_consistent(self) -> bool:
        """True when no directed edge appears twice (coherent orientation)."""
        e = self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        _, counts = np.unique(e, axis=0, return_counts=True)
        return bool(np.all(counts == 1))

    def euler_characteristic(self) -> int:
        edges, _ = self.edge_multiplicities()
        return self.n_vertices - len(edges) + self.n_triangles

    def n_components(self) -> int:
        if self.n_triangles == 0:
            return 0
        e, _ = self.edge_multiplicities()
        n = self.n_vertices
        adj = sp.coo_matrix(
            (np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n)
        )
        ncomp, _ = connected_components(adj, directed=False)
        return int(ncomp)


# Row c: the cut edges of sign code c as local node pairs, in cyclic order
# and oriented for a positive tet.  A lone sign pairs with the other three
# nodes in ascending order, and the triangle repeats its last corner; a 2+2
# split p1 < p2 (positive), n1 < n2 cuts (p1n1, p1n2, p2n2, p2n1), reversed
# where the orientation asks for it.  Rows 0 and 15 cut nothing.
_PATTERNS = np.array(
    [
        [[0, 0], [0, 0], [0, 0], [0, 0]],  # 0000
        [[0, 1], [0, 3], [0, 2], [0, 2]],  # 0001
        [[1, 0], [1, 2], [1, 3], [1, 3]],  # 0010
        [[0, 2], [1, 2], [1, 3], [0, 3]],  # 0011
        [[2, 0], [2, 3], [2, 1], [2, 1]],  # 0100
        [[0, 1], [0, 3], [2, 3], [2, 1]],  # 0101
        [[1, 0], [2, 0], [2, 3], [1, 3]],  # 0110
        [[3, 0], [3, 2], [3, 1], [3, 1]],  # 0111
        [[3, 0], [3, 1], [3, 2], [3, 2]],  # 1000
        [[0, 1], [3, 1], [3, 2], [0, 2]],  # 1001
        [[1, 0], [1, 2], [3, 2], [3, 0]],  # 1010
        [[2, 0], [2, 1], [2, 3], [2, 3]],  # 1011
        [[2, 0], [3, 0], [3, 1], [2, 1]],  # 1100
        [[1, 0], [1, 3], [1, 2], [1, 2]],  # 1101
        [[0, 1], [0, 2], [0, 3], [0, 3]],  # 1110
        [[0, 0], [0, 0], [0, 0], [0, 0]],  # 1111
    ],
    dtype=np.int64,
)
_IS_TRIANGLE = (_PATTERNS[:, 2] == _PATTERNS[:, 3]).all(axis=1)


def _split_quads_batch(quad_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Split quads at their largest inner angle; returns (N, 2, 3) ids.

    The largest-angle corner is connected to the opposite corner; exact
    angle ties resolve to the corner with the smallest global vertex id.
    Both halves keep the quad's cyclic orientation.
    """
    ang = np.arctan2(*corner_cross_dot(points[quad_ids]))
    amax = ang.max(axis=1)
    tied = ang == amax[:, None]
    cand = np.where(tied, quad_ids, np.iinfo(np.int64).max)
    m = cand.argmin(axis=1)

    idx = (m[:, None] + np.arange(4)[None, :]) % 4
    rot = np.take_along_axis(quad_ids, idx, axis=1)
    return rot[:, [[0, 1, 2], [0, 2, 3]]]


def extract_surface(mesh: TetMesh, field: NodalField) -> SurfaceMesh:
    """Extract the watertight oriented triangulation of {phi_h = 0}.

    Of the tets :meth:`TetMesh.band_tets` offers, every one with a strict
    sign pattern is cut by the table; a quad is split along the diagonal
    at its largest inner angle.  Cut vertices are deduplicated across
    tets by their global grid-edge key.  Kuhn lattice
    tets are all positively oriented; on an explicit mesh the sign of each
    cut tet's triple product picks row c or 15 - c.  Triangles come one
    (or two quad halves) per cut tet in increasing tet id, vertices by
    grid-edge key, so the result is a pure function of the inputs.  A
    field with one sign everywhere yields an empty surface; a field
    sampled on another mesh, exact nodal zeros and cut tets of zero volume
    raise ValueError.
    """
    if field.mesh is not mesh:
        raise ValueError("field does not match the mesh")
    vals = field.values
    if np.any(vals == 0.0):
        raise ValueError(
            "field has exact nodal zeros; apply snap_small_values first"
        )

    tet_ids, tet_nodes = mesh.band_tets(vals > 0.0)
    code = (vals[tet_nodes] > 0.0) @ np.array([1, 2, 4, 8])
    cut = (code > 0) & (code < 15)
    tet_ids, tet_nodes, code = tet_ids[cut], tet_nodes[cut], code[cut]
    if not mesh.is_kuhn_lattice:
        e = mesh.node_coords(tet_nodes[:, 1:]) - mesh.node_coords(tet_nodes[:, :1])
        vol = np.einsum("ij,ij->i", np.cross(e[:, 0], e[:, 1]), e[:, 2])
        if np.any(vol == 0.0):
            raise ValueError("cut tetrahedron with zero volume")
        code = np.where(vol < 0.0, 15 - code, code)

    ends = tet_nodes[np.arange(len(code))[:, None, None], _PATTERNS[code]]
    n_nodes = np.int64(mesh.n_nodes)
    a = np.minimum(ends[..., 0], ends[..., 1])
    b = np.maximum(ends[..., 0], ends[..., 1])
    uniq, inverse = np.unique((a * n_nodes + b).ravel(), return_inverse=True)
    polys = inverse.reshape(-1, 4)

    ua, ub = uniq // n_nodes, uniq % n_nodes
    fa, fb = vals[ua], vals[ub]
    if np.any(fa * fb >= 0):
        raise AssertionError("internal error: cut edge without sign change")
    t = fa / (fa - fb)
    points = ((1.0 - t)[:, None] * mesh.node_coords(ua)
              + t[:, None] * mesh.node_coords(ub))

    # Row i: the triangle of cut tet i, or both halves of its quad.
    quad = ~_IS_TRIANGLE[code]
    pairs = np.empty((len(code), 2, 3), dtype=np.int64)
    pairs[:, 0] = polys[:, :3]
    pairs[quad] = _split_quads_batch(polys[quad], points)
    return SurfaceMesh(
        vertices=points,
        triangles=pairs[np.column_stack([np.ones_like(quad), quad])],
        vertex_edges=np.column_stack([ua, ub]),
        vertex_t=t,
        tri_parent=np.repeat(tet_ids, 1 + quad),
        tri_from_quad=np.repeat(quad, 1 + quad),
    )
