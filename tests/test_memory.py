"""Peak memory of nodal sampling, error quadrature, assembly and eigen-estimates.

tracemalloc counts numpy's array allocations, so the traced peak of a call
is the most numpy memory alive at once inside it.  The bounds hold for a
node-free lattice sampled one z-plane at a time, for quadrature in fixed-size
triangle blocks, for a stiffness assembly that drops the triangle corners
before the sparse build, and for a Lanczos run that keeps two vectors;
sampling an (N, 3) node array at once peaks near 11x the nodal field,
whole-surface quadrature at h = 1/32 near 115 MiB, a stiffness assembly
that holds the corners 1.7 element arrays above the mass assembly, and a
Lanczos run that keeps its whole Krylov basis near 600 vectors at h = 1/16.
"""
import tracemalloc

import numpy as np
import pytest

from levelsurf import SphereLevelSet, build_uniform_mesh, interpolate_nodal
from levelsurf.level_set import product_arctan_function
from levelsurf.sparse_linalg import effective_cond
from levelsurf.surface_fem import (assemble_mass, assemble_stiffness,
                                   diag_scale, h1_semi_error, interpolate,
                                   l2_error, mass_cond, scaled_mass_cond)

from conftest import BOX, sphere_surface

MIB = 2.0 ** 20
H = 0.03125


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_sampling_peak_is_about_one_field():
    spec = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=1.0)
    field_bytes = 8 * build_uniform_mesh(BOX, H).n_nodes
    peak = traced_peak(lambda: interpolate_nodal(spec, build_uniform_mesh(BOX, H)))
    assert peak < 2 * field_bytes, f"{peak / field_bytes:.2f} x the field"


@pytest.fixture(scope="module")
def sphere_h32():
    return sphere_surface(H)


@pytest.mark.parametrize("error", [l2_error, h1_semi_error])
def test_error_quadrature_peak_is_bounded(sphere_h32, error):
    spec, surf = sphere_h32
    u = spec.extend(product_arctan_function())
    coeffs = interpolate(u, surf)
    peak = traced_peak(lambda: error(u, surf, coeffs))
    assert peak < 16 * MIB, f"{peak / MIB:.1f} MiB"


def test_stiffness_assembly_peak_is_near_mass_assembly(sphere_h32):
    # Both share _assemble's sparse build; the stiffness matrix may add
    # less than one (F, 3, 3) element array on top of it.
    _, surf = sphere_h32
    elem_bytes = 72 * surf.n_triangles
    extra = (traced_peak(lambda: assemble_stiffness(surf))
             - traced_peak(lambda: assemble_mass(surf)))
    assert extra < elem_bytes, f"{extra / elem_bytes:.2f} element arrays"


@pytest.fixture(scope="module")
def sphere_h16():
    return sphere_surface(0.0625)


@pytest.mark.parametrize("estimate",
                         ["scaled_mass_cond", "mass_cond", "effective_cond"])
def test_eigen_estimate_peak_is_a_few_vectors(sphere_h16, estimate):
    _, surf = sphere_h16
    if estimate != "effective_cond":
        M = assemble_mass(surf)
        n = M.shape[0]
        cond = scaled_mass_cond if estimate == "scaled_mass_cond" else mass_cond
        peak = traced_peak(lambda: cond(M))
    else:
        As, d = diag_scale(assemble_stiffness(surf))
        n = len(d)
        peak = traced_peak(lambda: effective_cond(As, np.sqrt(d)))
    vectors = peak / (8 * n)
    assert vectors < 64, f"{vectors:.0f} float64 vectors of length n = {n}"
