"""P1 finite elements on surface triangulations.

Mass matrices use the exact element integrals |T| (1 + delta_ij) / 12;
stiffness matrices use the cotangent formula with zero row sums, the
cotangents coming from the package's one corner-angle kernel
(:func:`~levelsurf.tet_grid.corner_cross_dot`).  Diagonal scaling
D^{-1/2} A D^{-1/2} produces a unit-diagonal matrix whose spectrum is what
the conditioning statements are about.  Mass-matrix condition numbers
factor no matrix: since D / 2 <= M <= 2 D, Lanczos runs on 2 I - M^s
directly and on M^{-1} through Jacobi-PCG solves, which converge in a few
dozen iterations at any mesh size.  The interpolant and the error norms
take a function u of ambient points, on a curved surface the extension
``spec.extend(u)``: u is interpolated at the vertices, and the errors are
evaluated with a 6-point degree-4 triangle quadrature, the reference
gradient ``u.gradient`` projected onto each triangle's plane.  Both
error norms run their quadrature over blocks of ``_QUAD_BLOCK``
triangles, so their temporaries do not grow with the surface, and on
one thread per usable CPU where the surface has two full blocks or more;
``u.value`` and ``u.gradient`` are then called from several threads at
once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .level_set import SurfaceFunction
from .sparse_linalg import CondEstimate, _lanczos, _norm, eig_extreme, pcg
from .surface_extract import SurfaceMesh
from .tet_grid import _map_blocks, corner_cross_dot

__all__ = [
    "interpolate",
    "l2_error",
    "h1_semi_error",
    "assemble_mass",
    "assemble_stiffness",
    "diag_scale",
    "scaled_mass_cond",
    "mass_cond",
]

# Symmetric 6-point triangle rule, exact for polynomials of degree 4.
# Weights are normalized to sum to 1 (multiply by the triangle area).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_QP_BARY = np.array(
    [
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
TRI_QP_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# Triangles per quadrature block of l2_error and h1_semi_error.
_QUAD_BLOCK = 4096


def interpolate(u: SurfaceFunction, surface: SurfaceMesh) -> np.ndarray:
    """Nodal coefficients of the P1 interpolant of u: u at the vertices.

    On a curved surface u is the extension ``spec.extend(u)``.
    """
    return np.asarray(u.value(surface.vertices), dtype=float)


def _quadrature_points(p: np.ndarray) -> np.ndarray:
    """Points of the 6-point rule on triangles ``p`` (B, 3, 3), (B, 6, 3).

    Three broadcast products summed in corner order: the same values as
    ``einsum("qk,fkj->fqj", TRI_QP_BARY, p)`` without its generic loop.
    """
    b = TRI_QP_BARY[:, :, None]
    return (b[:, 0] * p[:, None, 0] + b[:, 1] * p[:, None, 1]
            + b[:, 2] * p[:, None, 2])


def _quadrature_norm(surface: SurfaceMesh, coeffs: np.ndarray,
                     integrand) -> float:
    """sqrt(sum over triangles T of |T| * integrand on T), block by block.

    ``integrand(p, n, two_area, c)`` gets the corners, normals, twice the
    areas and nodal coefficients (B, 3) of one slice of at most
    ``_QUAD_BLOCK`` triangles and returns the quadrature-weighted mean of
    the squared error per triangle, (B,).  The slices run through
    :func:`~levelsurf.tet_grid._map_blocks`, on threads where the surface
    has two full blocks or more; each fills its part of one per-triangle
    array, summed once at the end, so the norm does not depend on the
    slicing.  Zero-area triangles raise.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (surface.n_vertices,):
        raise ValueError("coefficient vector does not match the surface")
    per_tri = np.empty(surface.n_triangles)

    def fill(rows):
        p, n, two_area = surface.tri_geometry(nondegenerate=True, rows=rows)
        c = coeffs[surface.triangles[rows]]
        per_tri[rows] = integrand(p, n, two_area, c) * (0.5 * two_area)

    _map_blocks(fill, surface.n_triangles, _QUAD_BLOCK)
    return float(np.sqrt(per_tri.sum()))


def l2_error(u: SurfaceFunction, surface: SurfaceMesh,
             coeffs: np.ndarray) -> float:
    """L2 norm of u - (P1 field with the given coefficients)."""

    def integrand(p, n, two_area, c):
        qp = _quadrature_points(p)                            # (B, 6, 3)
        ue = np.asarray(u.value(qp.reshape(-1, 3)),
                        dtype=float).reshape(qp.shape[:2])
        vh = c @ TRI_QP_BARY.T                                # (B, 6)
        return (ue - vh) ** 2 @ TRI_QP_WEIGHTS

    return _quadrature_norm(surface, coeffs, integrand)


def h1_semi_error(u: SurfaceFunction, surface: SurfaceMesh,
                  coeffs: np.ndarray) -> float:
    """H1 seminorm of the interpolation error, triangle by triangle.

    Both gradients are taken inside each triangle's plane: the P1 gradient
    is constant, sum_i c_i grad(lambda_i) with grad(lambda_i) = nh x
    (opposite edge) / (2 A); the reference gradient is ``u.gradient``,
    projected by I - nh nh^T at each quadrature point.  Raises ValueError
    when ``u.gradient`` is None.
    """
    if u.gradient is None:
        raise ValueError("h1_semi_error needs u.gradient")

    def integrand(p, n, two_area, c):
        nh = n / two_area[:, None]
        grad = (
            c[:, [0]] * np.cross(nh, p[:, 2] - p[:, 1])
            + c[:, [1]] * np.cross(nh, p[:, 0] - p[:, 2])
            + c[:, [2]] * np.cross(nh, p[:, 1] - p[:, 0])
        ) / two_area[:, None]
        qp = _quadrature_points(p)                            # (B, 6, 3)
        g = np.asarray(u.gradient(qp.reshape(-1, 3)),
                       dtype=float).reshape(qp.shape)
        diff = (g - nh[:, None] * np.einsum("bqj,bj->bq", g, nh)[..., None]
                - grad[:, None])
        return np.einsum("bqj,bqj->bq", diff, diff) @ TRI_QP_WEIGHTS

    return _quadrature_norm(surface, coeffs, integrand)


def _assemble(surface: SurfaceMesh, elem: np.ndarray) -> sp.csr_matrix:
    """Accumulate per-triangle 3x3 element matrices into CSR (both halves)."""
    tris = surface.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = surface.n_vertices
    A = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n))
    return A.tocsr()


def assemble_mass(surface: SurfaceMesh) -> sp.csr_matrix:
    """P1 mass matrix, element integrals |T| (1 + delta_ij) / 12."""
    _, _, two_area = surface.tri_geometry(nondegenerate=True)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    elem = (0.5 * two_area)[:, None, None] * base[None, :, :]
    return _assemble(surface, elem)


def assemble_stiffness(surface: SurfaceMesh) -> sp.csr_matrix:
    """P1 stiffness (surface Laplacian) matrix via the cotangent formula.

    Off-diagonal (i, j) entries are -cot(angle opposite edge ij) / 2
    summed over the one or two triangles containing the edge; diagonals
    make every row sum vanish, so constants are in the kernel exactly.
    """
    # The (F, 3, 3) corners are not kept: held through _assemble, they
    # would add to its peak.
    cross, dot = corner_cross_dot(surface.tri_geometry(nondegenerate=True)[0])
    cots = dot / cross

    elem = np.zeros((len(cots), 3, 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        elem[:, i, j] = elem[:, j, i] = -0.5 * cots[:, k]
    for i in range(3):
        elem[:, i, i] = -(elem[:, i, :].sum(axis=1) - elem[:, i, i])
    return _assemble(surface, elem)


def diag_scale(A: sp.spmatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric diagonal scaling D^{-1/2} A D^{-1/2}.

    Returns the scaled CSR matrix (diagonal set to exactly 1) and the
    original diagonal.  Raises when a diagonal entry is not positive.
    """
    A = A.tocsr()
    d = A.diagonal()
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise ValueError(f"non-positive diagonal entry at row {bad}: {d[bad]}")
    s = 1.0 / np.sqrt(d)
    out = sp.diags(s) @ A @ sp.diags(s)
    out = out.tocsr()
    out.setdiag(1.0)
    out.sort_indices()
    return out, d


# Relative residual of each inner Jacobi-PCG solve of mass_cond.  Lanczos
# on an inexact inverse keeps the accuracy of its Ritz values while the
# inner residual stays far below the outer tolerance (Simoncini & Szyld,
# SIAM J. Sci. Comput. 25, 2003); 1e-12 lies six orders below the
# Lanczos tolerance of 1e-6.
_MASS_SOLVE_TOL = 1e-12


def _check_p1_mass(M: sp.spmatrix, d: np.ndarray) -> None:
    """Raise ValueError unless the rows of M sum to 2 diag(M) = 2 d to
    1e-12 relative, as those of every P1 mass matrix do."""
    excess = _norm(M @ np.ones(len(d)) - 2.0 * d)
    if not excess <= 1e-12 * _norm(2.0 * d):
        raise ValueError("not a P1 mass matrix: row sums are not twice "
                         f"the diagonal (excess {excess:.3e})")


def scaled_mass_cond(M: sp.spmatrix) -> CondEstimate:
    """cond(M^s) of a P1 mass matrix M, M^s = D^{-1/2} M D^{-1/2}.

    The element matrix |T| (J + I) / 12 makes every row of M sum to twice
    its diagonal entry, M 1 = 2 D 1, and 2 D - M = sum_T |T| (3 I - J) / 12
    is positive semidefinite.  So lambda_max(M^s) = 2 exactly, with
    eigenvector D^{1/2} 1, and the spectrum lies in [1/2, 2] (Wathen, IMA J.
    Numer. Anal. 7, 1987).  Only lambda_min is estimated, as 2 minus the
    largest eigenvalue of 2 I - M^s by Lanczos, and never below 1/2, so
    cond <= 4.  Raises ValueError unless the rows of M sum to 2 diag(M) to
    1e-12 relative.
    """
    Ms, d = diag_scale(M)
    _check_p1_mass(M, d)
    top = eig_extreme(2.0 * sp.identity(len(d), format="csr") - Ms, "max")
    # A Ritz value is an inner bound, so top <= 3/2 in exact arithmetic.
    # Where lambda_min(M^s) is 1/2 itself, as on the 14-vertex sphere at
    # h = 2, roundoff can put top a few ulps above 3/2 and cond above 4;
    # Wathen's bound is the floor.
    lam_min = max(2.0 - top, 0.5)
    return CondEstimate(2.0, lam_min)


def mass_cond(M: sp.spmatrix) -> CondEstimate:
    """cond(M) of a P1 mass matrix M, with no matrix factored.

    lambda_max comes from ``eig_extreme(M, "max")``.  lambda_min is 1 / mu,
    mu the top Ritz value of Lanczos on M^{-1}, each application a
    Jacobi-PCG solve to relative residual 1e-12.  The bound D / 2 <= M <=
    2 D of :func:`scaled_mass_cond` makes the Jacobi-preconditioned M
    condition at most 4, so every solve takes a few dozen iterations at
    any mesh size.  That bound rests on the row sums, so this raises
    ValueError unless the rows of M sum to 2 diag(M) to 1e-12 relative,
    and np.linalg.LinAlgError when an inner solve misses its tolerance.
    On small matrices (n of 200 to 800) the solves spend most of their
    time in Python and scipy dispatch, 20 ms against 11 ms for a sparse
    LU; this does not show at scale.
    """
    M = sp.csr_matrix(M)
    _check_p1_mass(M, M.diagonal())
    lam_max = eig_extreme(M, "max")

    def solve(v):
        x, stats = pcg(M, v, tol=_MASS_SOLVE_TOL, precond="jacobi")
        if not stats.converged:
            raise np.linalg.LinAlgError(
                "mass-matrix solve stopped at relative residual "
                f"{stats.relres:.3e} after {stats.iterations} Jacobi-PCG "
                f"iterations, above {_MASS_SOLVE_TOL:g}")
        return x

    lam_min = 1.0 / _lanczos(solve, M.shape[0])
    return CondEstimate(lam_max, lam_min)
