"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os

import checks
import pytest
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_inputs_are_a_function_of_the_seed():
    assert workloads.draw_inputs(7) == workloads.draw_inputs(7)
    assert workloads.draw_inputs(7) != workloads.draw_inputs(8)
    # The stream of random.Random is fixed, so seed 0 always gives these.
    first = workloads.draw_inputs(0)[0]
    assert (first.z_reg, first.z_near) == ("0.0268884", "0.000572736")
    for seed in range(100):
        draws = workloads.draw_inputs(seed)
        assert len(set(draws)) == workloads.DRAWS
        for inputs in draws:
            assert 0.01 <= float(inputs.z_reg) <= 0.03
            assert 1e-4 <= float(inputs.z_near) <= 1e-3
            assert inputs.cond_z_reg in workloads.COND_Z_REG
            assert inputs.cond_z_near in workloads.COND_Z_NEAR


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pass_calls_are_a_function_of_the_seed(workload):
    calls = workloads.pass_calls(workload, workloads.draw_inputs(3)[1])
    assert calls == workloads.pass_calls(workload, workloads.draw_inputs(3)[1])
    shifts = set()
    for argv in calls:
        for flag in ("--zc", "--zc-list"):
            if flag in argv:
                shifts.update(argv[argv.index(flag) + 1].split(","))
    # The exactly snapped case is included; refmatrix has no sphere.
    assert "0" in shifts or workload == "refmatrix"


def test_unknown_workload_raises():
    with pytest.raises(ValueError):
        workloads.pass_calls("nope", workloads.draw_inputs(0)[0])


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    cli, lsio = run.load_levelsurf(ROOT)
    before_cli, before_io = dict(vars(cli)), dict(vars(lsio))
    client = run.Client(cli, [[["extract", "--h", "0.5", "--export", "obj"]]],
                        str(tmp_path))
    client.run_pass(0)
    tracer = spans.Tracer("test")
    metrics = run.measure_traced(client, cli, lsio, 0.0, tracer)
    assert dict(vars(cli)) == before_cli
    assert dict(vars(lsio)) == before_io
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "tet_grid.build_uniform_mesh",
            "surface_extract.extract_surface", "io.write_obj"} <= names
    assert metrics["surface_extract.n_triangles"] > 0
    assert metrics["tet_grid.n_tets"] == 6 * 8 ** 3
    # The traced pass wrote the same bytes as the untraced passes.
    assert client.failed == 0 and client.attempted == 3


def test_wrappers_are_restored_when_a_traced_pass_raises():
    cli, lsio = run.load_levelsurf(ROOT)
    original = cli.pcg
    tracer = spans.Tracer("test")
    tracer.install(cli, lsio)
    try:
        with pytest.raises(ValueError):
            cli.pcg([[1.0]], [1.0, 2.0])          # rhs of the wrong shape
    finally:
        tracer.restore()
    assert cli.pcg is original
    assert tracer.spans[-1].error == "ValueError"


def test_self_times_subtract_children():
    outer = spans.Span("cli.main", "cli", start=0.0, end=10.0)
    a = spans.Span("x.a", "x", start=1.0, end=4.0, parent=5)
    b = spans.Span("x.b", "x", start=5.0, end=6.0, parent=5)
    assert spans.self_times([outer, a, b], offset=5) == [6.0, 3.0, 1.0]


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in spans.PER_LAYER_METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _write_obj(path, tris, n_vertices=4):
    lines = [f"v {i} {i * i} {i ** 3}" for i in range(n_vertices)]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in tris]
    path.write_text("\n".join(lines) + "\n")


def test_obj_topology_of_a_closed_and_an_open_surface(tmp_path):
    tet = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    _write_obj(tmp_path / "closed.obj", tet)
    topo = checks.obj_topology(str(tmp_path / "closed.obj"))
    assert topo["watertight"] and topo["oriented"] and topo["euler"] == 2
    _write_obj(tmp_path / "open.obj", tet[:3])
    assert not checks.obj_topology(str(tmp_path / "open.obj"))["watertight"]
    flipped = tet[:3] + [(0, 2, 3)]
    _write_obj(tmp_path / "flipped.obj", flipped)
    assert not checks.obj_topology(str(tmp_path / "flipped.obj"))["oriented"]


def test_failed_checks_count_as_failed_operations(tmp_path):
    cli, _ = run.load_levelsurf(ROOT)
    # The sphere misses the mesh: surf exits 1 with an empty surface.
    client = run.Client(cli, [[["extract", "--h", "0.5", "--zc", "10"]]],
                        str(tmp_path))
    client.run_pass(0)
    assert (client.attempted, client.failed) == (1, 1)


# Shifts in [0.01, 0.03] at which Lanczos in ``effective_cond`` stops at
# its step cap at h = 1/16, so that ``surf conditioning`` writes
# cond_As_eff = nan, and shifts of the same scans (steps of 0.0005 over
# [0.01, 0.03], 0.0001 over [0.01, 0.02]) at which it converges.  The
# failures are why the cond-h16 workload takes its shifts from the paper's
# table; 0.0281128 is the z_reg that seed 20 draws.
NAN_Z_REG = ["0.0104", "0.0124", "0.0171", "0.0177", "0.022", "0.027",
             "0.0275", "0.028", "0.0281128", "0.029"]
FINITE_Z_REG = ["0.01", "0.0105", "0.015", "0.0215", "0.025", "0.0285",
                *workloads.COND_Z_REG]


def _conditioning_problems(out, z_reg: str) -> list[str]:
    cli, _ = run.load_levelsurf(ROOT)
    argv = ["conditioning", "--h", workloads.H_COND, "--zc-list", z_reg]
    rc = cli.main(argv + ["--out", str(out)])
    return checks.check_call(argv, str(out), rc)


@pytest.mark.parametrize("z_reg", FINITE_Z_REG)
def test_conditioning_at_a_converging_z_reg(tmp_path, z_reg):
    assert _conditioning_problems(tmp_path, z_reg) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: Lanczos in "
                   "effective_cond stops at its step cap at this shift and "
                   "surf conditioning writes cond_As_eff = nan")
@pytest.mark.parametrize("z_reg", NAN_Z_REG)
def test_conditioning_at_a_known_nan_z_reg(tmp_path, z_reg):
    assert _conditioning_problems(tmp_path, z_reg) == []
