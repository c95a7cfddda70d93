import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time

import numpy as np
import pytest

from levelsurf import cli
from levelsurf.cli import (
    CONDITIONING_COLUMNS,
    CONVERGENCE_COLUMNS,
    MASSBOUND_COLUMNS,
    QUALITY_COLUMNS,
    REFMATRIX_COLUMNS,
    _in_band,
    _order,
    main,
)
from levelsurf.sparse_linalg import (EigNonConvergence, SolveStats,
                                     ZeroPivotError)
from levelsurf.surface_fem import assemble_stiffness, diag_scale

from conftest import refuse_mesh_arrays


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_bad_flag_value_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--h", "abc"])
    assert exc.value.code == 1


def test_subcommand_options(tmp_path, capsys):
    # The settable values of each subcommand; the fixed setup (box, sphere
    # radius, surface function, PCG tolerance) is not among them.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == {
        "extract": ["--export", "--h", "--out", "--zc"],
        "convergence": ["--h-list", "--out", "--zc"],
        "conditioning": ["--export", "--h", "--out", "--seed", "--zc-list"],
        "refmatrix": ["--block-size", "--blocks", "--export", "--out",
                      "--seed"],
        "massbound": ["--h-list", "--out", "--zc"],
    }
    for argv in (["extract", "--box", "-2,-2,-2,2,2,2"],
                 ["massbound", "--radius", "1"],
                 ["convergence", "--function", "constant"],
                 ["refmatrix", "--tol", "1e-8"]):
        out = tmp_path / argv[1].lstrip("-")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert errors == [f"surf: error: unrecognized arguments: "
                          f"{' '.join(argv[1:])}"]
        assert not out.exists()


def test_unknown_export_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--export", "stl"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["conditioning", "--h", "0.5", "--zc-list", "0", "--export", "obj,vtk"],
    ["refmatrix", "--export", "obj"],
], ids=["conditioning", "refmatrix"])
def test_matrix_commands_export_only_mm(argv, tmp_path, capsys):
    # these commands have no surface file to write: obj and vtk are refused
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unknown export format 'obj' (choose from mm)" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    (["extract", "--h", "0.5", "--zc", "-1e-3"], "zc", -0.001),
    (["massbound", "--h-list", "0.5,0.25", "--zc", "-5e-4"], "zc", -0.0005),
    (["conditioning", "--h", "0.5", "--zc-list", "-0.001,0"], "zc_list",
     [-0.001, 0.0]),
])
def test_negative_number_values(argv, key, value, tmp_path):
    # Values starting with "-" that argparse alone would take for options.
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())[key] == value


@pytest.mark.parametrize("argv, message", [
    (["extract", "--h", "0.5", "--zc", "--bogus"],
     "argument --zc: expected one argument"),
    (["extract", "--h", "0.5", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
])
def test_option_for_value_or_unknown_option_exits_1(argv, message, tmp_path,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_operational_error_exits_1(tmp_path, capsys):
    # 4 / 0.3 is not an integer, so mesh construction fails.
    code = main(["extract", "--h", "0.3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["extract", "--h", "nan"], "nan"),
    (["extract", "--h", "inf"], "inf"),
    (["extract", "--h", "0.3"], "0.3"),
    (["convergence", "--h-list", "0.5,nan,0.25"], "nan"),
    (["massbound", "--h-list", "0.5,0.25", "--zc", "nan"], "nan"),
    (["convergence", "--h-list", "0.5,0.25,0.125", "--zc", "inf"], "inf"),
    (["extract", "--zc", "nan"], "nan"),
    (["conditioning", "--h", "0.5", "--zc-list", "inf"], "inf"),
    # too fine to index with int64 node ids; rejected before any allocation
    (["extract", "--h", "1e-300"], "h=1e-300"),
    (["extract", "--h", "1e-6"], "h=1e-06"),
    # a sphere outside the box: every sphere command names the empty surface
    (["extract", "--h", "0.5", "--zc", "10"], "empty surface"),
    (["convergence", "--h-list", "0.5,0.25,0.125", "--zc", "10"],
     "empty surface"),
    (["conditioning", "--h", "0.5", "--zc-list", "10"], "empty surface"),
    (["massbound", "--h-list", "0.5,0.25", "--zc", "10"], "empty surface"),
    # so far off that |x - center| overflows: inf nodal values, no warning
    (["extract", "--h", "0.5", "--zc", "1e200"], "nodal values must be finite"),
])
def test_bad_mesh_or_sphere_input_exits_1(argv, bad, tmp_path, capsys):
    # A non-finite h or sphere is named in one plain error line: no cast
    # warning, no numpy scalar repr, no misleading downstream message.
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and bad in errors[0]
    assert "np." not in err


@pytest.mark.parametrize("exc", [
    EigNonConvergence("lambda_max estimate not converged"),
    ZeroPivotError(3),
    np.linalg.LinAlgError("not positive definite"),
    MemoryError("Unable to allocate 477. GiB for an array"),
])
def test_solver_failure_exits_1(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "mass_cond", fail)
    code = main(["massbound", "--h-list", "0.5,0.25", "--out",
                 str(tmp_path / "o")])
    assert code == 1
    assert f"error: {exc}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# extract


def test_extract_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["extract", "--h", "0.5", "--out", str(out)])
    assert code == 0
    assert "extracted" in capsys.readouterr().out
    header, rows = read_csv(out / "quality.csv")
    assert header == QUALITY_COLUMNS
    assert len(rows) == 1
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["h"] == 0.5 and cfg["zc"] == 0.0
    quality = json.loads((out / "quality.json").read_text())
    assert 0.0 < quality["phi_min_deg"] <= 60.0 <= quality["phi_max_deg"] < 180.0


def test_extract_exports(tmp_path):
    out = tmp_path / "o"
    code = main(["extract", "--h", "0.5", "--out", str(out),
                 "--export", "obj,vtk,mm"])
    assert code == 0
    for name in ("surface.obj", "surface.vtk", "mass_scaled.mtx",
                 "stiffness_scaled.mtx"):
        assert (out / name).exists()


def test_extract_empty_surface_exits_1(tmp_path, capsys):
    code = main(["extract", "--h", "0.5", "--zc", "10.0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "empty surface" in capsys.readouterr().err


def test_extract_deterministic_rerun(tmp_path):
    out = tmp_path / "o"
    assert main(["extract", "--h", "0.5", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["extract", "--h", "0.5", "--out", str(out)]) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_main_trims_the_heap_after_each_command(tmp_path, monkeypatch,
                                                 capsys):
    # after a command that succeeds or fails, main hands the freed heap
    # pages back; a C library without malloc_trim changes nothing
    if platform.libc_ver()[0] == "glibc":
        assert hasattr(ctypes.CDLL(None), "malloc_trim")
    pads = []
    libc = type("Libc", (), {"malloc_trim": lambda self, pad: pads.append(pad)})
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc())
    out = str(tmp_path / "o")
    assert main(["extract", "--h", "0.5", "--out", out]) == 0
    assert main(["extract", "--h", "0.5", "--zc", "10.0", "--out", out]) == 1
    assert pads == [0, 0]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(["extract", "--h", "0.5", "--out", out]) == 0


# ---------------------------------------------------------------------------
# convergence


def test_order_and_band_helpers():
    assert _order(4e-4, 1e-4, 0.5, 0.25) == pytest.approx(2.0)
    assert _in_band(2.0, (1.8, 2.2))
    assert not _in_band(1.5, (1.8, 2.2))


def test_convergence_needs_three_levels(tmp_path, capsys):
    code = main(["convergence", "--h-list", "0.5,0.25",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "at least 3" in capsys.readouterr().err


def test_convergence_repeated_mesh_size_exits_1(tmp_path, capsys):
    code = main(["convergence", "--h-list", "0.25,0.25,0.125",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "distinct mesh sizes" in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


def test_convergence_three_levels_pass(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["convergence", "--h-list", "0.5,0.25,0.125",
                 "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    header, rows = read_csv(out / "convergence.csv")
    assert header == CONVERGENCE_COLUMNS
    assert len(rows) == 3
    assert rows[0][4] == ""                       # no order on the first level
    assert 1.8 <= float(rows[-1][4]) <= 2.2       # L2 order
    assert 0.8 <= float(rows[-1][5]) <= 1.2       # H1 order


def test_convergence_band_violation_exits_2(tmp_path, capsys):
    # Refining 0.25 -> 0.2 only multiplies N by ~1.56, violating the
    # vertex-ratio band.
    code = main(["convergence", "--h-list", "0.5,0.25,0.2",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_convergence_deterministic_rerun(tmp_path):
    out = tmp_path / "o"
    args = ["convergence", "--h-list", "0.5,0.25,0.125", "--out", str(out)]
    assert main(args) == 0
    before = (out / "convergence.csv").read_bytes()
    assert main(args) == 0
    assert (out / "convergence.csv").read_bytes() == before


# ---------------------------------------------------------------------------
# conditioning


def test_conditioning_table(tmp_path):
    out = tmp_path / "o"
    code = main(["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "conditioning.csv")
    assert header == CONDITIONING_COLUMNS
    assert len(rows) == 2
    assert [float(r[0]) for r in rows] == [0.0, 0.03]
    for r in rows:
        assert int(r[8]) > 0                      # dim_As
        assert float(r[9]) > 1.0                  # cond_Ms
        assert float(r[10]) > 1.0                 # cond_As_eff
        assert int(r[11]) >= 1                    # pcg_iters


def _use_cpus(monkeypatch, n):
    # conditioning runs its rows in this process on one usable CPU and in
    # forked workers on two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _dim(h, zc):
    return cli._sphere_surface(h, zc)[1].n_vertices


# The fakes below key on their input, not on a count of calls: a row that
# runs in a forked worker changes no counter of this process.


def test_conditioning_unconverged_row_exits_2(tmp_path, capsys, monkeypatch):
    real = cli.effective_cond
    dim = _dim(0.5, 0.03)
    assert dim != _dim(0.5, 0.0)

    def fail_at_003(As, *args, **kwargs):
        if As.shape[0] == dim:
            raise EigNonConvergence("lambda_max estimate not converged")
        return real(As, *args, **kwargs)

    monkeypatch.setattr(cli, "effective_cond", fail_at_003)
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        code = main(["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("cond_As_eff did not converge at "
                                           "z_c = 0.03 (written as nan)\n")
        header, rows = read_csv(out / "conditioning.csv")
        assert header == CONDITIONING_COLUMNS
        assert [float(r[0]) for r in rows] == [0.0, 0.03]
        assert float(rows[0][10]) > 1.0
        assert rows[1][10] == "nan"


def test_conditioning_unconverged_pcg_row_exits_2(tmp_path, capsys,
                                                  monkeypatch):
    args = ["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03"]
    assert main(args + ["--out", str(tmp_path / "ref")]) == 0
    _, ref_rows = read_csv(tmp_path / "ref" / "conditioning.csv")
    real = cli.pcg
    dim = _dim(0.5, 0.03)
    assert dim != _dim(0.5, 0.0)

    def stall_at_003(As, *args, **kwargs):
        # as pcg reports a run that used up its n iterations
        if As.shape[0] == dim:
            return np.zeros(dim), SolveStats(dim, 0.5, False)
        return real(As, *args, **kwargs)

    monkeypatch.setattr(cli, "pcg", stall_at_003)
    capsys.readouterr()
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        code = main(args + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"PCG did not converge at z_c = "
                                           f"0.03 (pcg_iters written as "
                                           f"{dim})\n")
        header, rows = read_csv(out / "conditioning.csv")
        assert header == CONDITIONING_COLUMNS
        assert rows[0] == ref_rows[0]
        assert rows[1][:11] == ref_rows[1][:11]
        assert rows[1][11] == str(dim)


def test_conditioning_jacobi_fallback_is_reported(tmp_path, capsys,
                                                  monkeypatch):
    args = ["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03"]
    assert main(args + ["--out", str(tmp_path / "ref")]) == 0
    _, ref_rows = read_csv(tmp_path / "ref" / "conditioning.csv")
    real = cli.pcg
    dims = {_dim(0.5, 0.0): "0.0", _dim(0.5, 0.03): "0.03"}
    assert len(dims) == 2
    log = tmp_path / "calls"

    def fail_ilu0_at_zero(As, *args, **kwargs):
        # one line per call, appended by whichever process runs the row
        with open(log, "a") as f:
            f.write(f"{dims[As.shape[0]]} {kwargs['precond']}\n")
        if dims[As.shape[0]] == "0.0" and kwargs["precond"] == "ilu0":
            raise ZeroPivotError(7)
        return real(As, *args, **kwargs)

    monkeypatch.setattr(cli, "pcg", fail_ilu0_at_zero)
    # the Jacobi-PCG count on the right-hand side of the z_c = 0 row, drawn
    # from a fresh default_rng(seed)
    _, surface = cli._sphere_surface(0.5, 0.0)
    As, _ = diag_scale(assemble_stiffness(surface))
    v = np.random.default_rng(0).standard_normal(As.shape[0])
    v /= cli._norm(v)
    _, jacobi = real(As, As @ v, tol=cli.PCG_TOL, precond="jacobi")
    capsys.readouterr()
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        code = main(args + ["--out", str(out)])
        assert code == 0
        calls = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        assert [p for zc, p in calls if zc == "0.0"] == ["ilu0", "jacobi"]
        assert [p for zc, p in calls if zc == "0.03"] == ["ilu0"]
        err = capsys.readouterr().err
        assert err == ("ILU(0)-PCG failed at z_c = 0.0 (ZeroPivotError: "
                       "ILU(0) breakdown: zero pivot in row 7); pcg_iters is "
                       "from Jacobi-PCG\n")
        header, rows = read_csv(out / "conditioning.csv")
        assert header == CONDITIONING_COLUMNS
        assert all(int(r[11]) >= 1 for r in rows)
        # only the z_c = 0 row's pcg_iters moves, to the Jacobi-PCG count
        assert rows[1] == ref_rows[1]
        assert rows[0][:11] == ref_rows[0][:11]
        assert int(rows[0][11]) == jacobi.iterations


def test_conditioning_gate_h8(tmp_path):
    # PCG iteration counts must repeat exactly; the condition numbers may
    # move only by rounding (LU ordering, order of the substitutions).
    out = tmp_path / "o"
    code = main(["conditioning", "--h", "0.125", "--zc-list",
                 "0.03,0.0005,0", "--seed", "0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "conditioning.csv")
    assert [int(r[11]) for r in rows] == [130, 136, 79]
    np.testing.assert_allclose(
        [float(r[10]) for r in rows],
        [4275.068255357686, 4962042.101812679, 2517035705.807006], rtol=1e-6)
    np.testing.assert_allclose(
        [float(r[9]) for r in rows],
        [3.9680293450765123, 3.9556925637368723, 3.9558498183378363],
        rtol=1e-9)


def test_conditioning_exports_each_row_like_extract(tmp_path):
    # Row z_c's matrix is extract's scaled stiffness at that z_c, and the
    # export leaves the table as it is.
    out = tmp_path / "cond"
    args = ["conditioning", "--h", "0.25", "--zc-list", "0.03,0"]
    assert main(args + ["--export", "mm", "--out", str(out)]) == 0
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert ((out / "conditioning.csv").read_bytes()
            == (tmp_path / "plain" / "conditioning.csv").read_bytes())
    assert sorted(p.name for p in out.glob("*.mtx")) == [
        "stiffness_scaled_zc0.0.mtx", "stiffness_scaled_zc0.03.mtx"]
    for zc in ("0.03", "0.0"):
        ext = tmp_path / f"extract{zc}"
        assert main(["extract", "--h", "0.25", "--zc", zc, "--export", "mm",
                     "--out", str(ext)]) == 0
        assert ((out / f"stiffness_scaled_zc{zc}.mtx").read_bytes()
                == (ext / "stiffness_scaled.mtx").read_bytes())


def test_conditioning_deterministic_rerun(tmp_path):
    out = tmp_path / "o"
    args = ["conditioning", "--h", "0.5", "--zc-list", "0.0,0.002",
            "--out", str(out)]
    assert main(args) == 0
    before = (out / "conditioning.csv").read_bytes()
    assert main(args) == 0
    assert (out / "conditioning.csv").read_bytes() == before


def test_conditioning_row_does_not_depend_on_its_position(tmp_path):
    # Each row draws its right-hand side from a fresh default_rng(seed), so
    # a z_c gives the same row wherever it stands in the list.
    rows = {}
    for zcs in ("0.03,0", "0,0.02,0.03"):
        out = tmp_path / zcs
        assert main(["conditioning", "--h", "0.125", "--zc-list", zcs,
                     "--out", str(out)]) == 0
        rows[zcs] = {r[0]: r for r in read_csv(out / "conditioning.csv")[1]}
    assert rows["0.03,0"]["0.03"] == rows["0,0.02,0.03"]["0.03"]
    assert rows["0.03,0"]["0.0"] == rows["0,0.02,0.03"]["0.0"]


def test_conditioning_failure_cancels_queued_rows(tmp_path, capsys,
                                                  monkeypatch):
    # Two workers and ten rows; the first row fails at once.  The rows a
    # worker already holds still run: at most 2 running and 3 in the pool's
    # call queue.  The other four are cancelled and never start.
    _use_cpus(monkeypatch, 2)
    started = tmp_path / "started"
    started.mkdir()

    def fail(h, zc):
        if zc == 0.0:
            raise ValueError("the first row failed")
        (started / repr(zc)).touch()
        time.sleep(0.3)
        raise ValueError(f"the row at z_c = {zc} failed")

    monkeypatch.setattr(cli, "_sphere_surface", fail)
    zcs = ",".join(["0"] + [f"0.00{i}" for i in range(1, 10)])
    assert main(["conditioning", "--h", "0.5", "--zc-list", zcs,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: the first row failed\n"
    assert len(list(started.iterdir())) <= 5
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# refmatrix


def test_refmatrix_small(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["refmatrix", "--blocks", "10", "--block-size", "10",
                 "--out", str(out)])
    assert code == 0
    assert "dim = 100" in capsys.readouterr().out
    header, rows = read_csv(out / "refmatrix.csv")
    assert header == REFMATRIX_COLUMNS
    assert [r[0] for r in rows] == ["none", "jacobi", "ilu0", "milu0"]
    assert all(r[3] == "True" for r in rows)
    meta = json.loads((out / "refmatrix.json").read_text())
    assert meta["dim"] == 100
    assert meta["iterations"]["ilu0"] < meta["iterations"]["none"]
    assert sorted(meta) == ["dim", "in_band", "iteration_band", "iterations",
                            "modal_row_nnz", "nnz"]


def test_refmatrix_export_and_rerun(tmp_path):
    out = tmp_path / "o"
    args = ["refmatrix", "--blocks", "6", "--block-size", "8",
            "--export", "mm", "--out", str(out)]
    assert main(args) == 0
    assert (out / "refmatrix.mtx").exists()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# massbound


def test_massbound(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["massbound", "--h-list", "0.5,0.25,0.125", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    header, rows = read_csv(out / "massbound.csv")
    assert header == MASSBOUND_COLUMNS
    assert [r[:2] for r in rows] == [["0.5", "182"], ["0.25", "830"],
                                     ["0.125", "3518"]]
    for r in rows:
        assert r[5] == "True"
        assert float(r[3]) <= float(r[4])
    # cond(M) as the sparse-LU shift-invert estimate gave it; cond(M^s) to
    # the last digit, as the solvers' einsum reductions give it.
    np.testing.assert_allclose(
        [float(r[2]) for r in rows],
        [19.855245407567594, 41.38924249121716, 103.12050560280125],
        rtol=1e-12)
    assert [r[3] for r in rows] == ["3.965031918125352", "3.957488638536791",
                                    "3.9558498181229225"]


# ---------------------------------------------------------------------------
# rows in forked workers

# A small run of each command that maps its rows through ``_row_map``, and
# the function of ``cli`` that each of its rows calls: the tests wrap that
# function to act from inside a row, in whichever process runs it.
ROW_RUNS = {
    "conditioning": ["conditioning", "--h", "0.5", "--zc-list", "0.03,0"],
    "refmatrix": ["refmatrix", "--blocks", "12", "--block-size", "12",
                  "--export", "mm"],
}
ROW_CALLS = {"conditioning": "_sphere_surface", "refmatrix": "pcg"}


@pytest.mark.parametrize("argv, files", [
    (["conditioning", "--h", "0.125", "--zc-list", "0.03,0.0005,0",
      "--export", "mm"],
     ["conditioning.csv", "stiffness_scaled_zc0.0.mtx",
      "stiffness_scaled_zc0.0005.mtx", "stiffness_scaled_zc0.03.mtx"]),
    (ROW_RUNS["refmatrix"],
     ["refmatrix.csv", "refmatrix.json", "refmatrix.mtx"]),
], ids=["conditioning", "refmatrix"])
def test_outputs_same_in_process_and_in_workers(argv, files, tmp_path,
                                                monkeypatch):
    name = ROW_CALLS[argv[0]]
    real = getattr(cli, name)
    pid_log = tmp_path / "pids"

    def record_pid(*args, **kwargs):
        with open(pid_log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, record_pid)
    outputs, pids = {}, {}
    for n in (1, 2):
        _use_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        assert main(argv + ["--out", str(out)]) == 0
        outputs[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "config.json"}
        pids[n] = set(pid_log.read_text().split())
        pid_log.unlink()
    assert pids[1] == {str(os.getpid())}
    assert str(os.getpid()) not in pids[2] and 1 <= len(pids[2]) <= 2
    assert sorted(outputs[1]) == files
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("command", sorted(ROW_RUNS))
def test_leaves_no_child_process(command, tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 2)
    assert main(ROW_RUNS[command] + ["--out", str(tmp_path / "o")]) == 0
    assert multiprocessing.active_children() == []


def _milu0_zero_pivot(monkeypatch):
    real = cli.pcg

    def fail_milu0(A, b, **kwargs):
        if kwargs["precond"] == "milu0":
            raise ZeroPivotError(7)
        return real(A, b, **kwargs)

    monkeypatch.setattr(cli, "pcg", fail_milu0)


@pytest.mark.parametrize("argv, fake, message", [
    (["conditioning", "--h", "0.5", "--zc-list", "0,10"], None,
     "the level set does not cut the mesh (empty surface)"),
    (["conditioning", "--h", "0.5", "--zc-list", "0,0.03", "--seed", "-1"],
     None, "expected non-negative integer"),
    (ROW_RUNS["refmatrix"], _milu0_zero_pivot,
     "ILU(0) breakdown: zero pivot in row 7"),
], ids=["conditioning-empty-surface", "conditioning-negative-seed",
        "refmatrix-zero-pivot"])
def test_row_error_exits_1(argv, fake, message, tmp_path, capsys,
                           monkeypatch):
    # an error raised in a worker ends as on the in-process path
    if fake is not None:
        fake(monkeypatch)
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / f"{argv[0]}.csv").exists()
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", sorted(ROW_RUNS))
def test_dead_worker_exits_1(command, tmp_path, capsys, monkeypatch):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()
    name = ROW_CALLS[command]
    real = getattr(cli, name)

    def die_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, die_in_worker)
    out = tmp_path / "o"
    assert main(ROW_RUNS[command] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ")
    assert err.count("\n") == 1
    assert not (out / f"{command}.csv").exists()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# every command


@pytest.mark.parametrize("argv", [
    ["extract", "--h", "0.25", "--export", "obj,vtk,mm"],
    ["convergence", "--h-list", "0.5,0.25,0.125"],
    ["conditioning", "--h", "0.5", "--zc-list", "0.03,0"],
    ["massbound", "--h-list", "0.5,0.25"],
], ids=lambda argv: argv[0])
def test_commands_build_no_mesh_arrays(argv, tmp_path, monkeypatch):
    # The lattice's (n+1)^3 nodes and 6 n^3 tets do not fit in memory at
    # the finest mesh sizes; no command may ask for either array.
    refuse_mesh_arrays(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # BLAS splits a long dot product over its threads, and the partial sums
    # add up in an order set by the thread count.  n = 14 400 (refmatrix)
    # and about 14 300 (the h = 1/16 sphere, also the finest massbound level
    # with its Jacobi-PCG solves) are above OpenBLAS's threading threshold.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    commands = [["refmatrix"],
                ["conditioning", "--h", "0.0625", "--zc-list", "0.03,0"],
                ["massbound", "--h-list", "0.25,0.125,0.0625"]]
    outputs = {}
    for threads in ("1", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in commands:
            out = tmp_path / f"{argv[0]}-{threads}"
            subprocess.run([sys.executable, "-m", "levelsurf", *argv,
                            "--out", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            outputs[argv[0], threads] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "config.json"}
    for argv in commands:
        assert outputs[argv[0], "1"] == outputs[argv[0], "3"], argv[0]
