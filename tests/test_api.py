import importlib

import pytest

MODULES = ["levelsurf"] + [
    f"levelsurf.{m}" for m in ("io", "level_set", "mesh_quality", "sparse_linalg",
                               "surface_extract", "surface_fem", "tet_grid")
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    # a name deleted from a module must leave its __all__ too
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
