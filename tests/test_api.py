import importlib

import pytest

import levelsurf

MODULES = ["levelsurf"] + [
    f"levelsurf.{m}" for m in ("io", "level_set", "mesh_quality", "sparse_linalg",
                               "surface_extract", "surface_fem", "tet_grid")
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    # a name deleted from a module must leave its __all__ too
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_names_pinned():
    # levelsurf.__all__ is built from the module lists, so a name added to
    # or dropped from any of them shows here.
    assert sorted(levelsurf.__all__) == [
        "AnalyticLevelSet", "AssumptionResiduals", "BoxDomain", "CondEstimate",
        "EigNonConvergence", "NodalField", "QualityReport", "SolveStats",
        "SphereLevelSet", "SurfaceFunction", "SurfaceMesh", "TetMesh",
        "ZeroPivotError", "assemble_mass", "assemble_stiffness",
        "assumption_residuals", "build_reference_matrix", "build_uniform_mesh",
        "diag_scale", "effective_cond", "eig_extreme", "extract_surface",
        "h1_semi_error", "ilu0_factor", "interpolate", "interpolate_nodal",
        "l2_error", "mass_cond", "min_angle_theta", "pcg",
        "product_arctan_function", "quality_report", "scaled_mass_cond",
        "shape_regularity", "snap_small_values", "tet_volumes",
    ]
