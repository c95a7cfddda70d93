"""Level-set functions and their nodal interpolants.

A level-set spec evaluates phi on arbitrary points; its zero set is the
surface of interest.  Interpolating phi at mesh nodes gives the piecewise
linear field whose zero set the extractor triangulates.  Exact nodal zeros
are snapped to a small positive value so every tet has a strict sign
pattern.  A spec with geometry has a signed-distance phi and the methods
``normal``, ``closest_point`` and ``extend``, the closest-point extension
u o p of a surface function u that the error norms take.
:class:`SphereLevelSet` is one; :class:`AnalyticLevelSet` is a bare phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tet_grid import TetMesh, norm3

__all__ = [
    "SphereLevelSet",
    "AnalyticLevelSet",
    "NodalField",
    "SurfaceFunction",
    "interpolate_nodal",
    "snap_small_values",
    "product_arctan_function",
]

# snap_small_values snaps |v| below this fraction of max|phi|.
_SNAP_REL = 1e-10


@dataclass(frozen=True)
class SphereLevelSet:
    """Signed distance to a sphere: phi(x) = |x - center| - radius."""

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.radius < float("inf"):
            raise ValueError(
                f"radius must be finite and positive, got {self.radius}")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if not np.isfinite(c).all():
            raise ValueError(f"center must be finite, got {tuple(c.tolist())}")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        # A distance past the float range becomes inf, which the caller's
        # finiteness check rejects, without an overflow warning first.
        with np.errstate(over="ignore"):
            return norm3(p - self.center) - self.radius

    def normal(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        d = p - self.center
        n = norm3(d)[..., None]
        if np.any(n <= 1e-300):
            raise ValueError("normal undefined at the sphere center")
        return d / n

    def closest_point(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.center) + self.radius * self.normal(points)

    def extend(self, u: SurfaceFunction) -> SurfaceFunction:
        """u's extension u(closest_point(x)); with yh = (x - c) / |x - c|,
        its gradient is (r / |x - c|) (I - yh yh^T) grad u(c + r yh), None
        when ``u.gradient`` is."""
        def value(points):
            return u.value(self.closest_point(points))

        def gradient(points):
            points = np.asarray(points, dtype=float)
            yh = self.normal(points)
            g = u.gradient(np.asarray(self.center) + self.radius * yh)
            g = g - yh * np.einsum("...j,...j->...", g, yh)[..., None]
            return (self.radius / norm3(points - self.center))[..., None] * g

        return SurfaceFunction(value, None if u.gradient is None else gradient)


@dataclass(frozen=True)
class AnalyticLevelSet:
    """Level set given by a callable phi.

    ``fn`` maps (..., 3) point arrays to (...) values and must be
    pointwise: :func:`interpolate_nodal` samples a lattice one z-plane per
    call, in a buffer it reuses, so each call sees only part of the grid
    and must not keep its argument.
    """

    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)


@dataclass
class NodalField:
    """Nodal values of a P1 field on a tet mesh."""

    mesh: TetMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} nodal values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")


@dataclass(frozen=True)
class SurfaceFunction:
    """Scalar function on the surface, evaluable at ambient points.

    ``value`` maps (..., 3) points to (...) values and must be pointwise:
    the error norms evaluate it block by block.  ``gradient``, if given,
    returns the ambient R^3 gradient (..., 3), also pointwise; the H1 error
    needs it, interpolation and the L2 error do not.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


def interpolate_nodal(spec, mesh: TetMesh) -> NodalField:
    """Evaluate the level-set spec at all mesh nodes.

    ``spec.evaluate`` runs through :meth:`TetMesh.sample`: once per z-plane
    of (nx + 1)(ny + 1) nodes on a lattice, so no (N, 3) coordinate array
    is ever built, and once on an explicit mesh's nodes.  It must be
    pointwise, and ValueError is raised unless each call returns one value
    per point.
    """
    return NodalField(mesh=mesh, values=mesh.sample(spec.evaluate))


def snap_small_values(field: NodalField) -> NodalField:
    """Replace nodal values with |v| < eps by +eps, eps = 1e-10 * max|phi|.

    The positive sign convention keeps the replacement deterministic and the
    operation idempotent.  Raises ValueError for an identically zero field.

    Returns a new field; the input is not modified.
    """
    v = field.values
    # max|v| without an |v| temporary; exact for finite values
    vmax = float(max(v.max(), -v.min())) if v.size else 0.0
    if vmax == 0.0:
        raise ValueError("cannot snap an identically zero field")
    eps = _SNAP_REL * vmax
    out = np.where(np.abs(v) < eps, eps, v)
    return NodalField(mesh=field.mesh, values=out)


def product_arctan_function() -> SurfaceFunction:
    """u(x) = x1 * x2 * arctan(2 x3) / pi, with its ambient gradient."""

    def value(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0] * p[..., 1] * np.arctan(2.0 * p[..., 2]) / np.pi

    def gradient(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        g = np.empty(p.shape, dtype=float)
        at = np.arctan(2.0 * z)
        g[..., 0] = y * at / np.pi
        g[..., 1] = x * at / np.pi
        g[..., 2] = 2.0 * x * y / (np.pi * (1.0 + 4.0 * z * z))
        return g

    return SurfaceFunction(value=value, gradient=gradient)
