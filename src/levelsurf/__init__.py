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

from . import (level_set, mesh_quality, sparse_linalg, surface_extract,
               surface_fem, tet_grid)
from .level_set import *
from .mesh_quality import *
from .sparse_linalg import *
from .surface_extract import *
from .surface_fem import *
from .tet_grid import *

__version__ = "0.1.0"

# The public names are each module's own __all__.
__all__ = sorted(name for module in (level_set, mesh_quality, sparse_linalg,
                                     surface_extract, surface_fem, tet_grid)
                 for name in module.__all__)
