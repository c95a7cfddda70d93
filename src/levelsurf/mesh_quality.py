"""Angle statistics and geometric-assumption checks for extracted surfaces.

The quality report collects the angle extremes and histogram of a surface
triangulation plus, for a spec with a signed-distance phi and a
``normal``, the residuals of the two geometric closeness assumptions:
maximum surface-to-Gamma distance (expected ~ h^2) and maximum deviation
of the discrete triangle normals from the exact ones (expected ~ h).  Over a
refinement sequence, :func:`assumption_residuals` fits the orders of both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .surface_extract import SurfaceMesh
from .tet_grid import _map_blocks, corner_cross_dot, norm3

__all__ = [
    "QualityReport",
    "quality_report",
    "AssumptionResiduals",
    "assumption_residuals",
]

ANGLE_BINS = 36  # 5-degree histogram bins covering (0, 180)

# Triangles per block of quality_report.  A triangle here takes about a
# quarter of the temporaries of one in the error quadrature, so four times
# surface_fem's _QUAD_BLOCK holds about as much; at a quarter of this
# block the numpy calls are too short to gain from a second thread, whose
# wait for the GIL then costs more than it saves.
_REPORT_BLOCK = 16384


def _corner_angles(p: np.ndarray, first: int = 0) -> np.ndarray:
    """Inner angles (F, 3), radians, of triangles with corners ``p`` (F, 3, 3);
    a zero-area triangle raises ValueError, naming it by its index plus
    ``first``, the index of ``p[0]`` in its surface."""
    cross, dot = corner_cross_dot(p)
    # the cross product at corner 0 is twice the triangle's area
    bad = np.flatnonzero(cross[:, 0] <= 0.0)
    if bad.size:
        raise ValueError(f"degenerate triangle at index {first + bad[0]}")
    return np.arctan2(cross, dot)


@dataclass
class QualityReport:
    """Summary statistics of a surface triangulation.

    Angles are in degrees.  ``count_below_1deg`` counts triangles whose
    smallest angle is below one degree.  ``max_dist`` and
    ``max_normal_dev`` are NaN unless the spec has a ``normal``
    (``assumptions_checked`` False).
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


def quality_report(surface: SurfaceMesh, spec=None) -> QualityReport:
    """Angle statistics, histogram and geometric-assumption residuals.

    The residuals (distance at vertices and barycenters, normal deviation
    at barycenters) need a ``spec`` with a signed-distance phi and a
    ``normal``; a spec without ``normal``, None included, leaves them NaN
    with ``assumptions_checked`` False.  The triangles run in blocks of
    ``_REPORT_BLOCK``, on one thread per usable CPU where the surface has
    two full blocks or more, so ``spec.evaluate`` and ``spec.normal`` may
    be called from several threads at once.
    """
    if surface.n_triangles == 0:
        return QualityReport(
            n_vertices=surface.n_vertices, n_triangles=0,
            phi_max_deg=float("nan"), phi_min_deg=float("nan"),
            count_below_1deg=0, angle_histogram=[0] * ANGLE_BINS,
        )
    checked = hasattr(spec, "normal")

    def block_stats(rows):
        # one corner gather serves the angles, barycenters and normals; the
        # angles raise first on a zero-area triangle (|n| is their corner-0
        # cross)
        p, n, two_area = surface.tri_geometry(rows=rows)
        ang = np.degrees(_corner_angles(p, rows.start))
        hist, _ = np.histogram(ang.ravel(), bins=ANGLE_BINS,
                               range=(0.0, 180.0))
        stats = [ang.max(), ang.min(), (ang.min(axis=1) < 1.0).sum(), hist]
        if checked:
            bary = p.mean(axis=1)
            # a spec with a normal has a signed-distance phi
            stats += [np.abs(spec.evaluate(bary)).max(),
                      norm3(spec.normal(bary) - n / two_area[:, None]).max()]
        return stats

    # maxima, minima and counts per block combine exactly, so the report
    # does not depend on the blocking
    blocks = _map_blocks(block_stats, surface.n_triangles, _REPORT_BLOCK)
    ang_max, ang_min, below, hist, *residuals = map(np.array, zip(*blocks))
    report = QualityReport(
        n_vertices=surface.n_vertices,
        n_triangles=surface.n_triangles,
        phi_max_deg=float(ang_max.max()),
        phi_min_deg=float(ang_min.min()),
        count_below_1deg=int(below.sum()),
        angle_histogram=[int(c) for c in hist.sum(axis=0)],
    )
    if checked:
        dist_b, dev = residuals
        d_v = np.abs(spec.evaluate(surface.vertices))
        report.max_dist = float(max(d_v.max(), dist_b.max()))
        report.max_normal_dev = float(dev.max())
        report.assumptions_checked = True
    return report


@dataclass
class AssumptionResiduals:
    """Residuals of the closeness assumptions over a refinement sequence.

    ``rows`` holds (h, max_dist, max_normal_dev) per level, as
    :func:`quality_report` gives them.  Slopes are least-squares fits of
    log(residual) against log(h).
    """

    rows: list[tuple[float, float, float]]
    slope_dist: float
    slope_normal: float


def _loglog_slope(h: np.ndarray, e: np.ndarray) -> float:
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def assumption_residuals(levels, spec) -> AssumptionResiduals:
    """Evaluate max_dist and max_normal_dev across a surface sequence.

    ``levels`` is an iterable of (h, SurfaceMesh) pairs; at least two are
    required (three or more give meaningful slopes).  The spec must have a
    signed-distance phi and a ``normal``, and a level with an empty surface
    raises ValueError: it has no residual to fit.
    """
    pairs = list(levels)
    if len(pairs) < 2:
        raise ValueError("need at least two refinement levels")
    if not hasattr(spec, "normal"):
        raise ValueError("assumption residuals need a spec with a normal")
    rows = []
    for h, surf in pairs:
        rep = quality_report(surf, spec)
        if rep.n_triangles == 0:
            raise ValueError(f"surface at h = {h} is empty")
        rows.append((float(h), rep.max_dist, rep.max_normal_dev))
    arr = np.asarray(rows)
    return AssumptionResiduals(
        rows=rows,
        slope_dist=_loglog_slope(arr[:, 0], arr[:, 1]),
        slope_normal=_loglog_slope(arr[:, 0], arr[:, 2]),
    )
