"""Watertight surface triangulations from P1 level sets on tetrahedral grids.

The pipeline: build a uniform Kuhn-subdivided tetrahedral mesh of a box
(:mod:`~levelsurf.tet_grid`), interpolate a level-set function as a nodal
P1 field (:mod:`~levelsurf.level_set`), extract the zero level set as an
oriented watertight triangulation (:mod:`~levelsurf.surface_extract`),
measure angles and geometric residuals (:mod:`~levelsurf.mesh_quality`),
assemble and diagonally scale surface P1 mass/stiffness matrices and
compute interpolation errors (:mod:`~levelsurf.surface_fem`), and analyze
conditioning with sparse symmetric solvers
(:mod:`~levelsurf.sparse_linalg`).  The ``surf`` command line
(:mod:`~levelsurf.cli`) drives the end-to-end experiments.
"""

from .level_set import (
    AnalyticLevelSet,
    NodalField,
    SphereLevelSet,
    SurfaceFunction,
    constant_function,
    coordinate_function,
    interpolate_nodal,
    product_arctan_function,
    snap_small_values,
)
from .mesh_quality import (
    AssumptionResiduals,
    QualityReport,
    assumption_residuals,
    quality_report,
    triangle_angles,
)
from .sparse_linalg import (
    CondEstimate,
    EigNonConvergence,
    SolveStats,
    ZeroPivotError,
    build_reference_matrix,
    effective_cond,
    eig_extreme,
    ilu0_factor,
    pcg,
)
from .surface_extract import (
    SurfaceMesh,
    extract_surface,
    plane_residuals,
    split_quad,
)
from .surface_fem import (
    assemble_mass,
    assemble_stiffness,
    diag_scale,
    h1_semi_error,
    interpolate,
    l2_error,
    mass_cond,
    scaled_mass_cond,
)
from .tet_grid import (
    BoxDomain,
    TetMesh,
    build_uniform_mesh,
    min_angle_theta,
    shape_regularity,
    tet_volumes,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticLevelSet",
    "AssumptionResiduals",
    "BoxDomain",
    "CondEstimate",
    "EigNonConvergence",
    "NodalField",
    "QualityReport",
    "SolveStats",
    "SphereLevelSet",
    "SurfaceFunction",
    "SurfaceMesh",
    "TetMesh",
    "ZeroPivotError",
    "assemble_mass",
    "assemble_stiffness",
    "assumption_residuals",
    "build_reference_matrix",
    "build_uniform_mesh",
    "constant_function",
    "coordinate_function",
    "diag_scale",
    "effective_cond",
    "eig_extreme",
    "extract_surface",
    "h1_semi_error",
    "ilu0_factor",
    "interpolate",
    "interpolate_nodal",
    "l2_error",
    "mass_cond",
    "min_angle_theta",
    "pcg",
    "plane_residuals",
    "product_arctan_function",
    "quality_report",
    "scaled_mass_cond",
    "shape_regularity",
    "snap_small_values",
    "split_quad",
    "tet_volumes",
    "triangle_angles",
]
