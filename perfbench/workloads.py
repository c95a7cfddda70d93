"""Workloads of the levelsurf benchmark and the seed-to-inputs generator.

A workload is one *pass*: a fixed list of ``surf`` command lines, run in
order.  The seed draws the sphere shifts the pass uses and is handed on
to the subcommands that take ``--seed`` (it sets the PCG right-hand side).
The exactly snapped case z_c = 0 is always included.

A run makes ``DRAWS`` draws from its seed and runs its passes in rounds
of one pass per draw.  The time of a ``conditioning`` pass depends on the
shifts (PCG needs 130 to 420 iterations at z_reg), so one draw per run
would make run-to-run spread mostly a matter of which shifts the seed
drew.  A ``refmatrix`` pass uses no shift, so its draws are alike.

``conditioning`` takes its shifts from the z_c table of the paper
(``COND_Z_REG``, ``COND_Z_NEAR``), not from the continuous ranges: at
h = 1/16, Lanczos in ``effective_cond`` stops at its step cap for about
8 % of z_reg in [0.01, 0.03] (0.0104, 0.0124, 0.0171, 0.0177, 0.022,
0.027, 0.0275, 0.028 and 0.029 among others) and ``surf conditioning``
then writes cond_As_eff = nan, which the checks count as a failed
operation.
``test_perfbench.py`` keeps each failing shift found as a strict expected
failure, and converging shifts as tests that must pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

H_FINE = "0.03125"          # h = 1/32: 12.6 M tets, about 1.1 GB peak RSS
H_COND = "0.0625"           # h = 1/16
DRAWS = 3
COND_Z_REG = ("0.03", "0.02")
COND_Z_NEAR = ("0.0005", "0.00025")

WORKLOADS = {
    "surface-h32": "geometry and io at h = 1/32; no Lanczos or PCG runs",
    "cond-h16": "Lanczos condition numbers and ILU(0)-PCG at h = 1/16 "
                "down to the degenerate regime z_c = 0",
    "refmatrix": "PCG with none, jacobi, ilu0 and milu0 on the 14 400-dof "
                 "reference matrix; no Lanczos, no geometry",
}

# One tiny call of each subcommand: the set-up a fresh ``surf`` process
# pays (lazy imports and first calls into numpy/scipy), all exiting 0.
WARMUP_CALLS = [
    ["extract", "--h", "0.5"],
    ["convergence", "--h-list", "0.5,0.25,0.125"],
    ["conditioning", "--h", "0.5", "--zc-list", "0"],
    ["refmatrix", "--blocks", "8", "--block-size", "8"],
    ["massbound", "--h-list", "0.5,0.25"],
]


@dataclass(frozen=True)
class Inputs:
    """One draw of a run's inputs, as the strings passed to ``surf``."""

    seed: int
    z_reg: str      # regular shift, uniform in [0.01, 0.03]
    z_near: str     # near-degenerate shift, log-uniform in [1e-4, 1e-3]
    cond_z_reg: str     # one of COND_Z_REG
    cond_z_near: str    # one of COND_Z_NEAR


def draw_inputs(seed: int) -> list[Inputs]:
    """The ``DRAWS`` inputs of ``seed``; the same seed gives the same inputs.

    Uses :class:`random.Random`, whose ``random()`` stream is fixed across
    Python versions, and rounds to six significant digits so the command
    lines are short and exact.
    """
    rng = random.Random(seed)
    draws = []
    for _ in range(DRAWS):
        z_reg = rng.uniform(0.01, 0.03)
        z_near = 10.0 ** rng.uniform(-4.0, -3.0)
        cond_z_reg = COND_Z_REG[int(rng.random() * len(COND_Z_REG))]
        cond_z_near = COND_Z_NEAR[int(rng.random() * len(COND_Z_NEAR))]
        draws.append(Inputs(seed=seed, z_reg=f"{z_reg:.6g}",
                            z_near=f"{z_near:.6g}", cond_z_reg=cond_z_reg,
                            cond_z_near=cond_z_near))
    return draws


def pass_calls(workload: str, inputs: Inputs) -> list[list[str]]:
    """The ``surf`` command lines of one pass, without ``--out``."""
    seed = ["--seed", str(inputs.seed)]
    if workload == "surface-h32":
        return [
            ["extract", "--h", H_FINE, "--zc", inputs.z_reg],
            ["extract", "--h", H_FINE, "--zc", "0", "--export", "obj,vtk,mm"],
            ["convergence", "--h-list", "0.125,0.0625," + H_FINE,
             "--zc", inputs.z_near],
        ]
    if workload == "cond-h16":
        return [["conditioning", "--h", H_COND, "--zc-list",
                 f"{inputs.cond_z_reg},{inputs.cond_z_near},0"] + seed]
    if workload == "refmatrix":
        return [["refmatrix"] + seed]
    raise ValueError(f"unknown workload {workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
