import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp

from levelsurf import io as lsio
from levelsurf.cli import main
from levelsurf.io import (
    fmt,
    write_csv,
    write_json,
    write_matrix_market,
    write_obj,
    write_vtk_surface,
)


def test_fmt_dispatch():
    assert fmt(True) == "True"
    assert fmt(np.bool_(False)) == "False"
    assert fmt(3) == "3"
    assert fmt(np.int64(-7)) == "-7"
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(1.0 / 3.0)) == "0.3333333333333333"
    assert fmt("label") == "label"


def test_fmt_float_roundtrip():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100):
        assert float(fmt(float(x))) == float(x)


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
    assert path.read_text() == "a,b\n1,0.5\n2,0.3333333333333333\n"


def test_write_csv_rejects_bad_row(tmp_path):
    with pytest.raises(ValueError, match="row length"):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1]])


def test_write_csv_deterministic(tmp_path):
    rows = [[i, float(np.sin(i))] for i in range(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ["i", "v"], rows)
    write_csv(str(p2), ["i", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_json_sorted_and_stable(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"zeta": 1, "alpha": [1.5, 2], "mid": {"b": 1, "a": 2}})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert text.endswith("\n")
    assert json.loads(text) == {"zeta": 1, "alpha": [1.5, 2], "mid": {"b": 1, "a": 2}}


def test_write_obj(tmp_path):
    path = tmp_path / "m.obj"
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    write_obj(str(path), verts, np.array([[0, 1, 2]]))
    lines = path.read_text().splitlines()
    assert lines[:3] == ["v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 0.5 0.0"]
    assert lines[3] == "f 1 2 3"


def test_write_vtk_surface(tmp_path):
    path = tmp_path / "s.vtk"
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    write_vtk_surface(str(path), verts, tris)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert lines[3] == "DATASET POLYDATA"
    assert "POINTS 3 double" in lines
    assert "POLYGONS 1 4" in lines
    assert lines[-1] == "3 0 1 2" and text.endswith("\n")
    assert "POINT_DATA" not in text


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    A = sp.random(30, 30, density=0.1, random_state=rng, format="csr")
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), A)
    B = scipy.io.mmread(str(path))
    assert B.shape == A.shape
    npt.assert_allclose(B.toarray(), A.toarray(), rtol=1e-14, atol=1e-300)


def rowwise_obj(vertices, triangles):
    """OBJ text formatted one row at a time, the writers' reference."""
    text = "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in vertices.tolist())
    text += "".join(f"f {a + 1} {b + 1} {c + 1}\n"
                    for a, b, c in triangles.tolist())
    return text or "\n"


def rowwise_vtk(vertices, triangles):
    """Legacy VTK text formatted one row at a time, the writers' reference."""
    nt = len(triangles)
    return (
        "# vtk DataFile Version 3.0\nlevelsurf surface\nASCII\n"
        f"DATASET POLYDATA\nPOINTS {len(vertices)} double\n"
        + "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in vertices.tolist())
        + f"POLYGONS {nt} {4 * nt}\n"
        + "".join(f"3 {a} {b} {c}\n" for a, b, c in triangles.tolist())
    )


EDGE_VERTICES = np.array([[-0.0, 1e-05, 1e+16], [5e-324, np.nan, -np.inf],
                          [0.1, -1.0 / 3.0, 1e300]])


@pytest.mark.parametrize("vertices, triangles, obj, vtk", [
    (np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), "\n",
     "# vtk DataFile Version 3.0\nlevelsurf surface\nASCII\n"
     "DATASET POLYDATA\nPOINTS 0 double\nPOLYGONS 0 0\n"),
    (EDGE_VERTICES, np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int32),
     "v -0.0 1e-05 1e+16\nv 5e-324 nan -inf\n"
     "v 0.1 -0.3333333333333333 1e+300\nf 1 2 3\nf 3 2 1\n",
     "# vtk DataFile Version 3.0\nlevelsurf surface\nASCII\n"
     "DATASET POLYDATA\nPOINTS 3 double\n-0.0 1e-05 1e+16\n"
     "5e-324 nan -inf\n0.1 -0.3333333333333333 1e+300\n"
     "POLYGONS 2 8\n3 0 1 2\n3 2 1 0\n"),
])
def test_mesh_writer_edge_cases(vertices, triangles, obj, vtk, tmp_path):
    write_obj(str(tmp_path / "m.obj"), vertices, triangles)
    write_vtk_surface(str(tmp_path / "m.vtk"), vertices, triangles)
    assert (tmp_path / "m.obj").read_text() == obj
    assert (tmp_path / "m.vtk").read_text() == vtk
    assert obj == rowwise_obj(vertices, triangles)
    assert vtk == rowwise_vtk(vertices, triangles)


def test_mesh_writers_span_blocks(tmp_path, monkeypatch):
    # more rows than one formatted block, ending in a partial block
    monkeypatch.setattr(lsio, "_BLOCK_ROWS", 4)
    n = 11
    rng = np.random.default_rng(4)
    vertices = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    triangles = rng.integers(0, n, (n + 1, 3))
    write_obj(str(tmp_path / "m.obj"), vertices, triangles)
    write_vtk_surface(str(tmp_path / "m.vtk"), vertices, triangles)
    assert (tmp_path / "m.obj").read_text() == rowwise_obj(vertices, triangles)
    assert (tmp_path / "m.vtk").read_text() == rowwise_vtk(vertices, triangles)


@pytest.mark.parametrize("n", [0, 3, 4, 11])
def test_shared_surface_writer_matches_rowwise(n, tmp_path, monkeypatch):
    # both files from one pass, whole and partial blocks, with the edge
    # rows (-0.0, 5e-324, nan, inf) in the first block
    monkeypatch.setattr(lsio, "_BLOCK_ROWS", 4)
    rng = np.random.default_rng(n)
    vertices = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    vertices[:min(n, 3)] = EDGE_VERTICES[:n]
    triangles = rng.integers(0, max(n, 1), (n + 1 if n else 0, 3))
    obj, vtk = tmp_path / "m.obj", tmp_path / "m.vtk"
    lsio._write_surface(vertices, triangles, str(obj), str(vtk))
    assert obj.read_text() == rowwise_obj(vertices, triangles)
    assert vtk.read_text() == rowwise_vtk(vertices, triangles)
    lsio._write_surface(vertices, triangles, obj_path=str(tmp_path / "o.obj"))
    lsio._write_surface(vertices, triangles, vtk_path=str(tmp_path / "v.vtk"))
    assert (tmp_path / "o.obj").read_bytes() == obj.read_bytes()
    assert (tmp_path / "v.vtk").read_bytes() == vtk.read_bytes()
    assert not (tmp_path / "o.vtk").exists() and not (tmp_path / "v.obj").exists()


@pytest.mark.parametrize("block_rows", [4, None])
def test_extract_surface_exports_agree(block_rows, tmp_path, monkeypatch):
    # --export obj, vtk and obj,vtk write the same surface files
    if block_rows is not None:
        monkeypatch.setattr(lsio, "_BLOCK_ROWS", block_rows)
    files = {}
    for export in ("obj", "vtk", "obj,vtk"):
        out = tmp_path / export.replace(",", "-")
        assert main(["extract", "--h", "0.25", "--zc", "0.03",
                     "--export", export, "--out", str(out)]) == 0
        for ext in export.split(","):
            files.setdefault(ext, []).append((out / f"surface.{ext}").read_bytes())
    assert len(files["obj"]) == len(files["vtk"]) == 2
    assert files["obj"][0] == files["obj"][1]
    assert files["vtk"][0] == files["vtk"][1]
    # the OBJ vertex lines are the VTK POINTS block, each prefixed by "v "
    obj_lines = files["obj"][0].decode().splitlines()
    vtk_lines = files["vtk"][0].decode().splitlines()
    n = int(vtk_lines[4].split()[1])
    assert [ln[2:] for ln in obj_lines[:n]] == vtk_lines[5:5 + n]


# SHA-256 of the exports of `surf extract --h 0.125 --export obj,vtk,mm`.
# The .mtx pins also hold scipy's MatrixMarket writer to its current bytes.
EXPORT_SHA256 = {
    0.03: {
        "surface.obj": "5083b8afb9293ae28a00e10bce92985504e3b531609974750e3e5d927816d0da",
        "surface.vtk": "dd4b367af845c273b374c4d6ca8bcbc8e9a5ebf66bf81c1f34a94bd6c94d5062",
        "mass_scaled.mtx": "9ece5ad9d4a092723d8e50cded96c759d608187f3aa10a9a87a7917e2c2a145f",
        "stiffness_scaled.mtx": "ad90818fa6c1540fd9227097a35243cc135d04e83b923118b840e3d89087d9fb",
    },
    0.0: {
        "surface.obj": "72397635a77266b37e9d3387ad8280df5c7a3043cd8087119c8efbf2bb84d47e",
        "surface.vtk": "5f296696fce1b9d2601d4faa2436b028bd2c57116a8bfe0eed7ce3fcc6652e1f",
        "mass_scaled.mtx": "bee7157b5c2dc4242f243440005edde590c87c9a89ae921f470196109258e132",
        "stiffness_scaled.mtx": "dafa2fc3283af15f1eb308bfcdf1aca0b51b9cba1bfd0055b5106c41d0784817",
    },
}


# SHA-256 of `convergence.csv` from `surf convergence --h-list
# 0.5,0.25,0.125` and of `quality.json` from `surf extract --h 0.125`.
REPORT_SHA256 = {
    0.03: {
        "convergence.csv": "eceb3a6e6cc7a3bc761b734fcfd3a9553abdcfb070dd976085020c9435ea701a",
        "quality.json": "2343bfe804909ce6b8ca7c218a4b38cd37f6707c3473e18e2d3b3c588e735949",
    },
    0.0005: {
        "convergence.csv": "4d00eadb59c2b3eec48d731d0c7ae6b58e7091dd369734969813b9a534f6e618",
        "quality.json": "f9ba2fdb55b0b6b496b9a1cdbd3b8d55787f7425a2b005f0aa204057fd6379b6",
    },
}


# SHA-256 of the solver reports: the Lanczos and PCG outputs of
# `conditioning` and `massbound`, and the PCG table of `refmatrix`.
SOLVER_REPORT_SHA256 = {
    "conditioning.csv": (
        ["conditioning", "--h", "0.0625", "--zc-list", "0.03,0.0005,0",
         "--seed", "0"],
        "c0fe3c23469ac1947a66a51e8f97a97d1a88e81cc56f2c60b05668dd4f3ecad8"),
    "massbound.csv": (
        ["massbound", "--h-list", "0.5,0.25,0.125"],
        "2131d5ab8dd1264f050fc011e6cf225f86c2bec4f4d11c63eb6d3401c5425c82"),
    "refmatrix.csv": (
        ["refmatrix"],
        "cf01031c54d60be31bd56331600973e570068b3884b7b2db94c320951b0a64fb"),
    "refmatrix.json": (
        ["refmatrix"],
        "81f9f6130845778f1feb08088d9b6402080dfe18f11e7baef5c139f061de33b9"),
}


@pytest.mark.parametrize("name", sorted(SOLVER_REPORT_SHA256))
def test_solver_reports_pinned(name, tmp_path):
    argv, sha = SOLVER_REPORT_SHA256[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("zc", sorted(REPORT_SHA256))
def test_reports_pinned(zc, tmp_path):
    assert main(["convergence", "--h-list", "0.5,0.25,0.125", "--zc", repr(zc),
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["extract", "--h", "0.125", "--zc", repr(zc),
                 "--out", str(tmp_path / "e")]) == 0
    got = {name: hashlib.sha256((tmp_path / d / name).read_bytes()).hexdigest()
           for d, name in (("c", "convergence.csv"), ("e", "quality.json"))}
    assert got == REPORT_SHA256[zc]


@pytest.mark.parametrize("zc", sorted(EXPORT_SHA256))
def test_extract_exports_pinned(zc, tmp_path):
    out = tmp_path / "o"
    assert main(["extract", "--h", "0.125", "--zc", repr(zc),
                 "--export", "obj,vtk,mm", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in EXPORT_SHA256[zc]}
    assert got == EXPORT_SHA256[zc]
