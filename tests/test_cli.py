import json

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
from levelsurf.sparse_linalg import EigNonConvergence, ZeroPivotError


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
def test_bad_tol_exits_1(tol, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refmatrix", "--blocks", "10", "--block-size", "10",
              f"--tol={tol}", "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_export_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--export", "stl"])
    assert exc.value.code == 1


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
    (["extract", "--radius", "nan"], "nan"),
    (["extract", "--radius", "inf"], "inf"),
    (["extract", "--zc", "nan"], "nan"),
    (["conditioning", "--h", "0.5", "--zc-list", "inf"], "inf"),
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
])
def test_solver_failure_exits_1(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "spd_cond", fail)
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


# ---------------------------------------------------------------------------
# convergence


def test_order_and_band_helpers():
    assert _order(4e-4, 1e-4, 0.5, 0.25) == pytest.approx(2.0)
    assert _order(1e-12, 1e-13, 0.5, 0.25) == float("inf")
    assert _order(0.1, 0.0, 0.5, 0.25) == float("inf")
    assert _in_band(2.0, (1.8, 2.2))
    assert not _in_band(1.5, (1.8, 2.2))
    assert _in_band(float("inf"), (1.8, 2.2))


def test_convergence_needs_three_levels(tmp_path, capsys):
    code = main(["convergence", "--h-list", "0.5,0.25",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "at least 3" in capsys.readouterr().err


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


def test_convergence_constant_exact_fit(tmp_path):
    out = tmp_path / "o"
    code = main(["convergence", "--h-list", "0.5,0.25,0.125",
                 "--function", "constant", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "convergence.csv")
    assert rows[-1][4] == "inf"


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


def test_conditioning_unconverged_row_exits_2(tmp_path, capsys, monkeypatch):
    real = cli.effective_cond
    calls = []

    def fail_second_row(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise EigNonConvergence("lambda_max estimate not converged")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "effective_cond", fail_second_row)
    out = tmp_path / "o"
    code = main(["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03",
                 "--out", str(out)])
    assert code == 2
    assert "did not converge at z_c = 0.03" in capsys.readouterr().err
    header, rows = read_csv(out / "conditioning.csv")
    assert header == CONDITIONING_COLUMNS
    assert [float(r[0]) for r in rows] == [0.0, 0.03]
    assert float(rows[0][10]) > 1.0
    assert rows[1][10] == "nan"


def test_conditioning_jacobi_fallback_is_reported(tmp_path, capsys,
                                                  monkeypatch):
    real = cli.pcg
    calls = []

    def fail_first_call(*args, **kwargs):
        calls.append(kwargs["precond"])
        if len(calls) == 1:
            raise ZeroPivotError(7)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "pcg", fail_first_call)
    out = tmp_path / "o"
    code = main(["conditioning", "--h", "0.5", "--zc-list", "0.0,0.03",
                 "--out", str(out)])
    assert code == 0
    assert calls == ["ilu0", "jacobi", "ilu0"]
    err = capsys.readouterr().err
    assert ("ILU(0)-PCG failed at z_c = 0.0 (ZeroPivotError: ILU(0) breakdown: "
            "zero pivot in row 7); pcg_iters is from Jacobi-PCG") in err
    assert "z_c = 0.03" not in err
    header, rows = read_csv(out / "conditioning.csv")
    assert header == CONDITIONING_COLUMNS
    assert all(int(r[11]) >= 1 for r in rows)


def test_conditioning_gate_h8(tmp_path):
    # PCG iteration counts must repeat exactly; the condition numbers may
    # move only by rounding (LU ordering, order of the substitutions).
    out = tmp_path / "o"
    code = main(["conditioning", "--h", "0.125", "--zc-list",
                 "0.03,0.0005,0", "--seed", "0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "conditioning.csv")
    assert [int(r[11]) for r in rows] == [130, 137, 78]
    np.testing.assert_allclose(
        [float(r[10]) for r in rows],
        [4275.068255357686, 4962042.101812679, 2517035705.807006], rtol=1e-6)
    np.testing.assert_allclose(
        [float(r[9]) for r in rows],
        [3.9680293450765123, 3.9556925637368723, 3.9558498183378363],
        rtol=1e-9)


def test_conditioning_deterministic_rerun(tmp_path):
    out = tmp_path / "o"
    args = ["conditioning", "--h", "0.5", "--zc-list", "0.0,0.002",
            "--out", str(out)]
    assert main(args) == 0
    before = (out / "conditioning.csv").read_bytes()
    assert main(args) == 0
    assert (out / "conditioning.csv").read_bytes() == before


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
    code = main(["massbound", "--h-list", "0.5,0.25", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    header, rows = read_csv(out / "massbound.csv")
    assert header == MASSBOUND_COLUMNS
    assert len(rows) == 2
    for r in rows:
        assert r[5] == "True"
        assert float(r[3]) <= float(r[4])
    # the unscaled condition number grows while the scaled one stays put
    assert float(rows[1][2]) > float(rows[0][2])
