"""Level-set functions and their nodal interpolants.

A level-set spec evaluates phi on arbitrary points; its zero set is the
surface of interest.  Interpolating phi at mesh nodes gives the piecewise
linear field whose zero set the extractor triangulates.  Exact nodal zeros
are snapped to a small positive value so every tet has a strict sign
pattern.  A sphere spec also projects points onto its surface
(``spec.closest_point``), which extends surface functions off the surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tet_grid import TetMesh

__all__ = [
    "SphereLevelSet",
    "AnalyticLevelSet",
    "NodalField",
    "SurfaceFunction",
    "interpolate_nodal",
    "snap_small_values",
    "product_arctan_function",
    "coordinate_function",
    "constant_function",
]

# Nodes per sampling chunk in interpolate_nodal (1.5 MiB of coordinates).
_SAMPLE_CHUNK = 1 << 16


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

    @property
    def supports_distance(self) -> bool:
        return True

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return np.linalg.norm(p - self.center, axis=-1) - self.radius

    # phi already is the signed distance
    signed_distance = evaluate

    def normal(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        d = p - self.center
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(n <= 1e-300):
            raise ValueError("normal undefined at the sphere center")
        return d / n

    def closest_point(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.center) + self.radius * self.normal(points)


@dataclass(frozen=True)
class AnalyticLevelSet:
    """Level set given by a callable phi; distance/normal handles optional.

    ``fn`` maps (..., 3) point arrays to (...) values and must be
    pointwise: :func:`interpolate_nodal` samples the nodes in chunks, so
    each call sees only part of the grid.  If ``distance`` and
    ``normal`` are provided, geometric-assumption checks become available;
    closest-point projection is not supported for generic level sets.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    distance: Callable[[np.ndarray], np.ndarray] | None = None
    normal_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def supports_distance(self) -> bool:
        return self.distance is not None and self.normal_fn is not None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        if self.distance is None:
            raise ValueError("this level set does not provide a distance handle")
        return np.asarray(self.distance(np.asarray(points, dtype=float)), dtype=float)

    def normal(self, points: np.ndarray) -> np.ndarray:
        if self.normal_fn is None:
            raise ValueError("this level set does not provide a normal handle")
        return np.asarray(self.normal_fn(np.asarray(points, dtype=float)), dtype=float)

    def closest_point(self, points: np.ndarray) -> np.ndarray:
        raise ValueError(
            "closest-point projection is only available for sphere level sets"
        )


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
    returns the ambient R^3 gradient (..., 3); it is only used by tests and
    cross-checks — error norms use in-plane finite differences.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


def interpolate_nodal(spec, mesh: TetMesh) -> NodalField:
    """Evaluate the level-set spec at all mesh nodes.

    Nodes are sampled in chunks of at most ``_SAMPLE_CHUNK`` consecutive
    ids, so no (N, 3) coordinate array is ever built; ``spec.evaluate``
    must therefore be pointwise.
    """
    values = np.empty(mesh.n_nodes)
    for start in range(0, mesh.n_nodes, _SAMPLE_CHUNK):
        ids = np.arange(start, min(start + _SAMPLE_CHUNK, mesh.n_nodes))
        values[start:start + _SAMPLE_CHUNK] = spec.evaluate(mesh.node_coords(ids))
    return NodalField(mesh=mesh, values=values)


def snap_small_values(field: NodalField, eps_snap: float | None = None) -> NodalField:
    """Replace nodal values with |v| < eps_snap by +eps_snap.

    The positive sign convention keeps the replacement deterministic and the
    operation idempotent.  Default eps_snap is 1e-10 * max|phi|.

    Returns a new field; the input is not modified.
    """
    v = field.values
    if eps_snap is None:
        vmax = float(np.abs(v).max()) if v.size else 0.0
        if vmax == 0.0:
            raise ValueError("cannot snap an identically zero field")
        eps_snap = 1e-10 * vmax
    if eps_snap <= 0:
        raise ValueError(f"eps_snap must be positive, got {eps_snap}")
    out = np.where(np.abs(v) < eps_snap, eps_snap, v)
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


def coordinate_function(axis: int = 2) -> SurfaceFunction:
    """u(x) = x_axis."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    e = np.zeros(3)
    e[axis] = 1.0
    return SurfaceFunction(
        value=lambda p: np.asarray(p, dtype=float)[..., axis],
        gradient=lambda p: np.broadcast_to(e, np.asarray(p).shape).copy(),
    )


def constant_function(c: float = 1.0) -> SurfaceFunction:
    """u(x) = c."""
    return SurfaceFunction(
        value=lambda p: np.full(np.asarray(p).shape[:-1], float(c)),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
    )
