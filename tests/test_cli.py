"""CLI contract: exit codes, report determinism, formats, config."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvint as cv
from curvint import catalog, cli
from curvint.quadrature import QuadratureGrid
from conftest import CATALOG_PAIRS

GRID = "12,12,12"  # small grids keep the CLI suite fast


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_contents_and_determinism(capsys):
    code, out1, _ = run(capsys, "list")
    assert code == 0
    assert "sphere3" in out1 and "n=2" in out1 and "betti=(1,0,0,1)" in out1
    assert "torus2" in out1 and "n=1" in out1
    code, out2, _ = run(capsys, "list")
    assert out1 == out2


def test_verify_sphere3_pass(capsys):
    code, out, err = run(capsys, "verify", "--surface", "sphere3",
                         "--field", "hopf", "--grid", GRID, "--workers", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["surface"] == "sphere3" and rep["field"] == "hopf"
    assert rep["degree"]["rounded"] == 1
    assert [row["k"] for row in rep["eta"]] == [0, 1, 2]
    assert all(row["pass"] for row in rep["eta"])
    assert rep["milnor"]["all_ok"] is True
    assert rep["foliation"]["integrable"] is False
    assert rep["timings_ms"] is None
    assert rep["version"] == cv.__version__
    assert "all checks passed" in err


def test_verify_under_resolved_exits_1(capsys):
    code, out, err = run(capsys, "verify", "--surface", "sphere3",
                         "--field", "hopf", "--grid", "8,8,8",
                         "--tol", "1e-12", "--workers", "1")
    assert code == 1
    rep = json.loads(out)
    assert any(not row["resolved"] for row in rep["eta"])


def test_verify_torus2(capsys):
    code, out, _ = run(capsys, "verify", "--surface", "torus2",
                       "--field", "theta", "--grid", "24,24")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"]["rounded"] == 0
    assert all(row["predicted"] == 0 for row in rep["eta"])


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_json_byte_identical_across_workers(tmp_path, capsys, skey, fkey):
    # several blocks, but below FORK_POINTS, so they run inline at every
    # worker count; criterion 9 compares forked passes at the default grid
    grid = "96,96" if skey == "torus2" else "24,24,24"
    p1 = tmp_path / "w1.json"
    p8 = tmp_path / "w8.json"
    code1, _, _ = run(capsys, "verify", "--surface", skey, "--field",
                      fkey, "--grid", grid, "--workers", "1",
                      "--out", str(p1))
    code8, _, _ = run(capsys, "verify", "--surface", skey, "--field",
                      fkey, "--grid", grid, "--workers", "8",
                      "--out", str(p8))
    # ellipsoid3 is under-resolved below 48^3: a full report with exit 1
    assert code1 == code8 == (1 if skey == "ellipsoid3" else 0)
    assert p1.read_bytes() == p8.read_bytes()


def _c_order_pair(surface, field):
    """The pair as a user chart and field that return C-order copies of the
    catalog arrays; the field carries no coefficients, so the passes call it."""
    def copied(fn):
        return lambda *args: np.array(fn(*args), order="C")

    charts = tuple(dataclasses.replace(
        ch, position=copied(ch.position), first_partials=copied(ch.first_partials),
        second_partials=copied(ch.second_partials)) for ch in surface.charts)
    user_field = cv.TangentField(ambient_value=copied(field.ambient_value),
                                 ambient_jacobian=copied(field.ambient_jacobian),
                                 key=field.key)
    return dataclasses.replace(surface, charts=charts), user_field


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_c_order_user_pair_reports_byte_identical(capsys, monkeypatch, skey, fkey):
    """A chart and field that return C-order arrays, copied once into
    batch-last storage by the passes, give the catalog pair's report bytes."""
    grid = "48,40" if skey == "torus2" else "16,12,20"
    argvs = [(command, "--surface", skey, "--field", fkey, "--grid", grid, "--workers", "2")
             for command in ("verify", "compute")]
    want = [run(capsys, *argv)[:2] for argv in argvs]

    surface = catalog.get_surface(skey)
    user_surface, user_field = _c_order_pair(surface, catalog.get_field(fkey, surface))
    U = QuadratureGrid.build(surface, 8).charts[0].points
    # the catalog writes batch-last storage, the user pair returns C order
    assert np.moveaxis(surface.charts[0].first_partials(U), 0, -1).flags.c_contiguous
    assert user_surface.charts[0].first_partials(U).flags.c_contiguous
    assert user_field.ambient_jacobian(0, U).flags.c_contiguous
    monkeypatch.setattr(catalog, "get_surface", lambda key: user_surface)
    monkeypatch.setattr(catalog, "get_field", lambda key, s: user_field)
    got = [run(capsys, *argv)[:2] for argv in argvs]
    assert got == want  # exit codes and report bytes


def test_csv_projection(capsys):
    code, out, _ = run(capsys, "verify", "--surface", "torus2", "--field",
                       "theta", "--grid", "16,16", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["surface", "field", "n", "grid"]
    assert "integral" in header and "pass" in header
    assert len(lines) == 3  # header + k = 0, 1
    assert lines[1].startswith("torus2,theta,1,16x16")


def test_compute_command(capsys):
    code, out, _ = run(capsys, "compute", "--surface", "sphere3", "--field",
                       "hopf", "--grid", GRID, "--k", "0,2")
    assert code == 0
    rep = json.loads(out)
    assert [row["k"] for row in rep["eta"]] == [0, 2]
    target = 2.0 * np.pi**2
    assert abs(rep["eta"][0]["integral"] - target) < 1e-6 * target


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--surface", "torus2", "--field",
                       "theta", "--grid", "16,16", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[7] == "0"  # k column


def test_degree_command(capsys):
    code, out, _ = run(capsys, "degree", "--surface", "tube-t3",
                       "--grid", "16,16,16")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"]["rounded"] == 0


def test_milnor_explicit_failure(capsys):
    code, out, _ = run(capsys, "milnor", "--d", "3", "--betti", "1,0,0,1")
    assert code == 1
    rep = json.loads(out)
    assert rep["milnor"]["bound_ok"] is False


def test_milnor_from_surface(capsys):
    code, out, _ = run(capsys, "milnor", "--surface", "torus2",
                       "--grid", "16,16")
    assert code == 0
    rep = json.loads(out)
    assert rep["d"] == 0 and rep["betti"] == [1, 2, 1]
    assert rep["milnor"]["all_ok"] is True


def test_foliation_command(capsys):
    code, out, _ = run(capsys, "foliation", "--surface", "sphere3",
                       "--field", "hopf", "--grid", GRID)
    assert code == 0
    rep = json.loads(out)
    fol = rep["foliation"]
    assert fol["integrable"] is False
    assert abs(fol["max_defect"] - 2.0) < 1e-6


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--surface", "nope", "--field", "hopf")[0] == 64
    assert run(capsys, "verify", "--surface", "sphere3", "--field", "bad")[0] == 64
    assert run(capsys, "verify", "--surface", "sphere3", "--field", "hopf",
               "--grid", "4,4,4")[0] == 64
    assert run(capsys, "verify", "--surface", "sphere3", "--field", "hopf",
               "--grid", "8,8")[0] == 64
    assert run(capsys, "verify", "--field", "hopf")[0] == 64
    assert run(capsys, "milnor", "--d", "1")[0] == 64
    assert run(capsys, "degree", "--surface", "torus2", "--format", "csv",
               "--grid", "16,16")[0] == 64


def test_k_outside_range_exits_64(capsys):
    code, out, err = run(capsys, "compute", "--surface", "torus2", "--field",
                         "theta", "--grid", "16,16", "--k", "0,2")
    assert code == 64 and out == ""
    assert "[0, 1]" in err
    assert run(capsys, "verify", "--surface", "sphere3", "--field", "hopf",
               "--grid", "8", "--k", "3")[0] == 64


def test_milnor_bad_betti_exits_64(capsys):
    code, out, _ = run(capsys, "milnor", "--surface", "sphere3", "--grid", "8",
                       "--betti", "1,x")
    assert code == 64 and out == ""
    assert run(capsys, "milnor", "--d", "1", "--betti=-1,2")[0] == 64


@pytest.mark.parametrize("argv", [
    ("degree", "--surface", "torus2", "--grid", "16", "--tol", "1"),
    ("compute", "--surface", "torus2", "--field", "theta", "--abs-tol", "1"),
    ("foliation", "--surface", "torus2", "--field", "theta", "--k", "0"),
    ("milnor", "--d", "0", "--betti", "1,2,1", "--k", "0"),
], ids=["degree-tol", "compute-abs-tol", "foliation-k", "milnor-k"])
def test_flags_a_subcommand_does_not_read_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 64
    capsys.readouterr()


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv,grid", [
    (("verify", "--surface", "sphere3", "--field", "hopf"), "100000"),
    (("degree", "--surface", "sphere3"), "100000"),
    (("compute", "--surface", "sphere3", "--field", "hopf"), "8,8,2000000000000000000"),
], ids=["verify-memory", "degree-memory", "compute-too-big"])
def test_grid_that_cannot_be_allocated_exits_64(capsys, argv, grid):
    """numpy refuses these node arrays before touching memory: 10^15 nodes
    (MemoryError) and a periodic axis of 2e18 nodes (ValueError)."""
    code, out, err = run(capsys, *argv, "--grid", grid)
    assert code == 64 and out == ""
    counts = grid if "," in grid else ",".join([grid] * 3)
    assert f"curvint: error: grid {counts} cannot be allocated" in err


def test_evaluation_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gauss_degree",
                        lambda *a, **kw: (_ for _ in ()).throw(
                            cv.NonIntegerDegree("synthetic")))
    code, _, err = run(capsys, "degree", "--surface", "sphere3",
                       "--grid", "8,8,8")
    assert code == 2
    assert "evaluation error" in err


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface=torus2\nfield=theta\ngrid=8,8\n# comment\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--grid", "16,16")
    assert code == 0
    rep = json.loads(out)
    assert rep["surface"] == "torus2"
    assert rep["grid"] == [16, 16]  # flag overrides the config value


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("surfce=torus2\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 64


@pytest.mark.parametrize("command,line", [
    ("degree", "tol=1"),
    ("degree", "k=5"),
    ("degree", "field=theta"),
    ("compute", "abs-tol=1"),
    ("compute", "tol=1"),
    ("foliation", "k=0"),
    ("milnor", "abs-tol=1"),
])
def test_config_key_a_subcommand_does_not_read_exits_64(tmp_path, capsys,
                                                        command, line):
    base = "surface=torus2\ngrid=8\n"
    if command in ("compute", "foliation"):
        base += "field=theta\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base)
    code, _, _ = run(capsys, command, "--config", str(cfg))
    assert code in (0, 1)
    cfg.write_text(base + line + "\n")
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 64
    lineno = base.count("\n") + 1
    assert f"{cfg}:{lineno}:" in err


@pytest.mark.parametrize("flag,value", [
    ("--tol", "inf"), ("--tol", "nan"), ("--abs-tol", "inf"), ("--abs-tol", "nan"),
    ("config", "inf"),
])
def test_non_finite_tolerance_exits_64(tmp_path, capsys, flag, value):
    """An infinite tolerance would pass every row, a NaN one fail every row."""
    argv = ["verify", "--surface", "ellipsoid3", "--field", "hopf", "--grid", "8"]
    if flag == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol={value}\n")
        argv += ["--config", str(cfg)]
        flag = "--tol"
    else:
        argv += [flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert f"{flag} must be finite and positive" in err


@pytest.mark.parametrize("argv,config", [
    (("degree", "--surface", "sphere3", "--grid", "8", "--format", "csv"), None),
    (("milnor", "--surface", "sphere3", "--grid", "8", "--format", "csv"), None),
    (("foliation", "--surface", "sphere3", "--field", "hopf", "--grid", "8",
      "--format", "csv"), None),
    (("verify",), "surface=sphere3\nfield=hopf\ngrid=8\nformat=xml\n"),
], ids=["degree-csv", "milnor-csv", "foliation-csv", "verify-config-xml"])
def test_format_usage_error_before_any_pass(tmp_path, capsys, monkeypatch, argv, config):
    """A format the subcommand cannot write exits 64 before any grid pass."""
    def no_pass(*args, **kwargs):
        raise AssertionError("grid pass ran before the format check")

    for name in ("verify_integral_formula", "gauss_degree",
                 "foliation_obstruction_report", "integrate_eta"):
        monkeypatch.setattr(cli, name, no_pass)
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    message = "unknown format 'xml'" if config else \
        "csv format is only available for verify/compute"
    assert err == f"curvint: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--surface", "torus2", "--field", "theta", "--grid", "16"),
    ("compute", "--surface", "torus2", "--field", "theta", "--grid", "16"),
    ("degree", "--surface", "torus2", "--grid", "16"),
    ("milnor", "--surface", "torus2", "--grid", "16"),
    ("milnor", "--d", "0", "--betti", "1,2,1"),
    ("foliation", "--surface", "torus2", "--field", "theta", "--grid", "16"),
], ids=["verify", "compute", "degree", "milnor-surface", "milnor-d", "foliation"])
def test_stderr_summary_ends_with_wall_time(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert re.search(r" \d+ ms$", err.splitlines()[-1])


def test_usage_error_prints_only_its_error_line(capsys):
    code, out, err = run(capsys, "degree", "--surface", "torus2", "--grid", "4")
    assert code == 64 and out == ""
    assert err == f"curvint: error: node counts must be >= {cli.MIN_NODES}\n"


def test_entry_exit_status(capsys, monkeypatch):
    for argv, status in ((["list"], 0), (["degree"], 64)):
        monkeypatch.setattr(sys, "argv", ["curvint", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == status
    capsys.readouterr()


def test_module_entry_lists_the_catalog():
    """``python -m curvint.cli list`` from a checkout, with src on the path."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "curvint.cli", "list"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == list(catalog.surface_names()) and len(listed) == 5


def test_unwritable_out_exits_64(tmp_path, capsys, monkeypatch):
    """A report directory that does not exist is a usage error before any
    grid pass, and nothing is created."""
    def no_pass(*args, **kwargs):
        raise AssertionError("a grid pass ran")

    monkeypatch.setattr(cli, "gauss_degree", no_pass)
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "degree", "--surface", "torus2",
                         "--grid", "16,16", "--out", str(out_path))
    assert code == 64 and out == ""
    assert f"curvint: error: cannot write {out_path}: " in err
    assert not out_path.parent.exists()


def test_missing_config_exits_64(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    code, out, err = run(capsys, "degree", "--surface", "torus2", "--config", str(cfg))
    assert code == 64 and out == ""
    assert f"curvint: error: cannot read {cfg}: " in err


def test_workers_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CURVINT_WORKERS", "2")
    code, out, _ = run(capsys, "degree", "--surface", "torus2",
                       "--grid", "16,16")
    assert code == 0
    monkeypatch.setenv("CURVINT_WORKERS", "zero")
    code, _, _ = run(capsys, "degree", "--surface", "torus2", "--grid", "16,16")
    assert code == 64


def test_default_workers_follow_cpu_affinity(monkeypatch):
    """With no flag, environment or config the pool gets one thread per CPU
    the process may run on, not one per CPU of the machine."""
    monkeypatch.delenv("CURVINT_WORKERS", raising=False)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    args = cli._build_parser().parse_args(["degree", "--surface", "torus2"])
    assert cli._parse_workers(args) == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._parse_workers(args) == 64


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "degree", "--surface", "torus2",
                       "--grid", "16,16", "--out", str(out_path))
    assert code == 0
    assert out == ""
    rep = json.loads(out_path.read_text())
    assert rep["degree"]["rounded"] == 0


def test_float_formatting_17_digits():
    assert cli._fmt_float(2.0 * np.pi**2) == "19.739208802178716"
    assert cli._fmt_float(0.1) == "0.10000000000000001"
