"""Angle statistics and geometric-assumption checks for extracted surfaces.

The quality report collects the angle extremes and histogram of a surface
triangulation plus, when the level set provides distance and normal
handles, the residuals of the two geometric closeness assumptions: maximum
surface-to-zero-set distance (expected ~ h^2) and maximum deviation of the
discrete triangle normals from the exact ones (expected ~ h).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .surface_extract import SurfaceMesh
from .tet_grid import corner_cross_dot

__all__ = [
    "triangle_angles",
    "QualityReport",
    "quality_report",
    "AssumptionResiduals",
    "assumption_residuals",
]

ANGLE_BINS = 36  # 5-degree histogram bins covering (0, 180)


def triangle_angles(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Inner angles of each triangle in radians, shape (F, 3).

    Uses atan2 of cross/dot (:func:`~levelsurf.tet_grid.corner_cross_dot`),
    which stays accurate for angles near 0 and pi.
    Angles of each row sum to pi up to roundoff.  Zero-area triangles have
    no well-defined angles and raise.
    """
    p = np.asarray(vertices, dtype=float)[np.asarray(triangles, dtype=np.int64)]
    cross, dot = corner_cross_dot(p)
    # the cross product at corner 0 is twice the triangle's area
    bad = np.flatnonzero(cross[:, 0] <= 0.0)
    if bad.size:
        raise ValueError(f"degenerate triangle at index {bad[0]}")
    return np.arctan2(cross, dot)


@dataclass
class QualityReport:
    """Summary statistics of a surface triangulation.

    Angles are in degrees.  ``count_below_1deg`` counts triangles whose
    smallest angle is below one degree.  ``max_dist`` and
    ``max_normal_dev`` are NaN when the level set cannot provide distance
    and normal handles (``assumptions_checked`` False).
    """

    n_vertices: int
    n_triangles: int
    phi_max_deg: float
    phi_min_deg: float
    count_below_1deg: int
    angle_histogram: list[int] = field(default_factory=list)
    max_dist: float = float("nan")
    max_normal_dev: float = float("nan")
    assumptions_checked: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def _assumption_maxima(surface: SurfaceMesh, spec) -> tuple[float, float]:
    """(max distance sampled at vertices+barycenters, max normal deviation)."""
    bary = surface.tri_coords().mean(axis=1)
    d_v = np.abs(spec.signed_distance(surface.vertices))
    d_b = np.abs(spec.signed_distance(bary))
    max_dist = float(max(d_v.max(initial=0.0), d_b.max(initial=0.0)))
    dev = np.linalg.norm(spec.normal(bary) - surface.normals(), axis=1)
    return max_dist, float(dev.max(initial=0.0))


def quality_report(surface: SurfaceMesh, spec=None) -> QualityReport:
    """Angle statistics, histogram and geometric-assumption residuals.

    ``spec`` is optional; without distance/normal support the assumption
    residuals are reported as NaN with ``assumptions_checked`` False.
    """
    if surface.n_triangles == 0:
        return QualityReport(
            n_vertices=surface.n_vertices, n_triangles=0,
            phi_max_deg=float("nan"), phi_min_deg=float("nan"),
            count_below_1deg=0, angle_histogram=[0] * ANGLE_BINS,
        )
    ang = np.degrees(triangle_angles(surface.vertices, surface.triangles))
    hist, _ = np.histogram(ang.ravel(), bins=ANGLE_BINS, range=(0.0, 180.0))
    report = QualityReport(
        n_vertices=surface.n_vertices,
        n_triangles=surface.n_triangles,
        phi_max_deg=float(ang.max()),
        phi_min_deg=float(ang.min()),
        count_below_1deg=int((ang.min(axis=1) < 1.0).sum()),
        angle_histogram=[int(c) for c in hist],
    )
    if spec is not None and getattr(spec, "supports_distance", False):
        report.max_dist, report.max_normal_dev = _assumption_maxima(surface, spec)
        report.assumptions_checked = True
    return report


@dataclass
class AssumptionResiduals:
    """Residuals of the closeness assumptions over a refinement sequence.

    ``rows`` holds (h, max_dist, max_normal_dev) per level.  Slopes are
    least-squares fits of log(residual) against log(h); inf marks an exact
    fit (all residuals ~ 0, e.g. affine level sets).
    """

    rows: list[tuple[float, float, float]]
    slope_dist: float
    slope_normal: float


def _loglog_slope(h: np.ndarray, e: np.ndarray) -> float:
    # Residuals at the roundoff floor mean the surface is reproduced
    # exactly (affine level sets); a fitted slope would be noise.
    if np.any(e <= 1e-12):
        return float("inf")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def assumption_residuals(levels, spec) -> AssumptionResiduals:
    """Evaluate max_dist and max_normal_dev across a surface sequence.

    ``levels`` is an iterable of (h, SurfaceMesh) pairs; at least two are
    required (three or more give meaningful slopes).  The spec must provide
    distance and normal handles.
    """
    pairs = list(levels)
    if len(pairs) < 2:
        raise ValueError("need at least two refinement levels")
    if not getattr(spec, "supports_distance", False):
        raise ValueError("level set does not provide distance/normal handles")
    rows = []
    for h, surf in pairs:
        md, mn = _assumption_maxima(surf, spec)
        rows.append((float(h), md, mn))
    arr = np.asarray(rows)
    return AssumptionResiduals(
        rows=rows,
        slope_dist=_loglog_slope(arr[:, 0], arr[:, 1]),
        slope_normal=_loglog_slope(arr[:, 0], arr[:, 2]),
    )
