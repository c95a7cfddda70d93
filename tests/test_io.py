import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp

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
