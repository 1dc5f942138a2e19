"""Golden reports: every catalog pair at a small grid.

The committed reports under ``tests/golden/`` were written by
``curvint verify``, ``compute``, ``degree`` and ``foliation`` at
``--workers 1`` (JSON for every pair, CSV for one pair each of
``verify`` and ``compute``), and by ``curvint milnor`` from a surface and
from an explicit degree.  The test runs the same commands again and
compares the reports field by field (CSV cell by cell):
strings, integers, booleans, nulls and exit codes exactly, floats within
``1e-12 * max(1, |golden|)``.  The float bound absorbs last-digit
differences between numpy/LAPACK builds and deliberate reorderings of the
pointwise arithmetic.

Regenerate (only when a report change is intended) from the repository
root with ``PYTHONPATH=src python tests/test_golden.py``; to add new runs
without rewriting the others, pass just those to ``regenerate(runs)``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvint
from curvint import cli

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

GOLDEN_DIR = Path(__file__).parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"

# (surface, field, nodes per coordinate)
CASES = [
    ("torus2", "theta", 64),
    ("sphere3", "hopf", 24),
    ("ellipsoid3", "hopf", 32),
    ("revs1s2", "theta", 24),
    ("tube-t3", "fiber", 24),
]

FLOAT_RTOL = 1e-12


def _pair_run(command, surface, field, nodes, fmt="json"):
    """(report name, argv) of one run on a catalog pair at ``nodes`` per axis.

    ``degree`` and ``milnor`` take no ``--field``, so their name and argv
    leave the field out.
    """
    if command in ("degree", "milnor"):
        field = None
    names = [command, surface] + ([field] if field else []) + [str(nodes)]
    argv = [command, "--surface", surface] + (["--field", field] if field else [])
    argv += ["--grid", str(nodes), "--workers", "1", "--format", fmt]
    return "-".join(names) + "." + fmt, argv


CSV_RUNS = [_pair_run("compute", "torus2", "theta", 64, "csv"),
            _pair_run("verify", "sphere3", "hopf", 24, "csv")]
MILNOR_RUNS = [_pair_run("milnor", "sphere3", None, 24),
               ("milnor-d3-betti1001.json",  # violates the bound: exit 1
                ["milnor", "--d", "3", "--betti", "1,0,0,1", "--format", "json"])]
RUNS = ([_pair_run(command, *case)
         for command in ("verify", "compute", "degree", "foliation")
         for case in CASES]
        + CSV_RUNS + MILNOR_RUNS)


def _csv_value(cell):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _load(path):
    """A JSON report, or a CSV report as rows of int/float/str cells."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return [[_csv_value(c) for c in line.split(",")] for line in text.splitlines()]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def golden_mismatches(golden, actual, path="$"):
    """Paths at which ``actual`` leaves the golden report's bounds.

    A float printed with no fractional digits reads back as an int, so two
    ints must be equal and any other pair of numbers is held to the float
    bound.
    """
    if isinstance(golden, dict) and isinstance(actual, dict):
        if list(golden) != list(actual):
            return [f"{path}: keys {list(actual)} != {list(golden)}"]
        return [m for key in golden
                for m in golden_mismatches(golden[key], actual[key], f"{path}.{key}")]
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return [f"{path}: length {len(actual)} != {len(golden)}"]
        return [m for i, (g, a) in enumerate(zip(golden, actual))
                for m in golden_mismatches(g, a, f"{path}[{i}]")]
    if _is_number(golden) and _is_number(actual):
        if isinstance(golden, int) and isinstance(actual, int):
            ok = golden == actual
        else:
            ok = abs(actual - golden) <= FLOAT_RTOL * max(1.0, abs(golden))
        return [] if ok else [f"{path}: {actual!r} vs golden {golden!r}"]
    if type(golden) is not type(actual) or golden != actual:
        return [f"{path}: {actual!r} != golden {golden!r}"]
    return []


def test_mismatch_rules():
    assert golden_mismatches({"a": 1.0, "b": [0, True]},
                             {"a": 1.0 + 1e-13, "b": [1e-15, True]}) == []
    assert golden_mismatches({"x": 2.0}, {"x": 2.0 + 1e-11})
    assert golden_mismatches({"k": 2}, {"k": 3})
    assert golden_mismatches({"ok": True}, {"ok": 1})
    assert golden_mismatches({"s": "a"}, {"s": "b"})
    assert golden_mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert golden_mismatches([1.0], [1.0, 2.0])


def _check_golden(tmp_path, capsys, name, argv):
    expected_code = json.loads(MANIFEST.read_text())[name]
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    capsys.readouterr()
    assert code == expected_code
    assert golden_mismatches(_load(GOLDEN_DIR / name), _load(out)) == []


_CASE_IDS = [f"{s}-{f}-{n}" for s, f, n in CASES]


@pytest.mark.parametrize("surface,field,nodes", CASES, ids=_CASE_IDS)
def test_verify_matches_golden(tmp_path, capsys, surface, field, nodes):
    _check_golden(tmp_path, capsys, *_pair_run("verify", surface, field, nodes))


@pytest.mark.parametrize("surface,field,nodes", CASES, ids=_CASE_IDS)
def test_compute_matches_golden(tmp_path, capsys, surface, field, nodes):
    _check_golden(tmp_path, capsys, *_pair_run("compute", surface, field, nodes))


@pytest.mark.parametrize("surface,field,nodes", CASES, ids=_CASE_IDS)
def test_degree_matches_golden(tmp_path, capsys, surface, field, nodes):
    _check_golden(tmp_path, capsys, *_pair_run("degree", surface, field, nodes))


@pytest.mark.parametrize("surface,field,nodes", CASES, ids=_CASE_IDS)
def test_foliation_matches_golden(tmp_path, capsys, surface, field, nodes):
    _check_golden(tmp_path, capsys, *_pair_run("foliation", surface, field, nodes))


@pytest.mark.parametrize("name,argv", MILNOR_RUNS, ids=[n for n, _ in MILNOR_RUNS])
def test_milnor_matches_golden(tmp_path, capsys, name, argv):
    _check_golden(tmp_path, capsys, name, argv)


@pytest.mark.parametrize("name,argv", CSV_RUNS, ids=[n for n, _ in CSV_RUNS])
def test_csv_matches_golden(tmp_path, capsys, name, argv):
    _check_golden(tmp_path, capsys, name, argv)


# numpy's run-time SIMD dispatch groups above the x86-64-v2 baseline
SIMD_GROUPS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

# Writes the report of every (name, argv) run read from stdin into the
# directory argv[1], then prints the exit codes and the SIMD groups on.
_RUN_ALL = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from curvint import cli
runs = json.load(sys.stdin)
codes = {name: cli.main(argv + ["--out", sys.argv[1] + "/" + name]) for name, argv in runs}
print(json.dumps([codes, [g for g in sys.argv[2:] if __cpu_features__.get(g)]]))
"""


def test_reports_keep_their_bytes_without_simd_groups(tmp_path, capsys):
    """Every golden run gives the same report bytes and exit code in a
    process with numpy's SIMD dispatch groups above the baseline switched
    off (``NPY_DISABLE_CPU_FEATURES``) as in this one, where they are on:
    one numpy build gives the same reports on any x86-64 CPU it runs on."""
    groups = [g for g in SIMD_GROUPS if __cpu_features__.get(g)]
    if not groups:
        pytest.skip("no SIMD dispatch group above the baseline is on")
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    codes = {name: cli.main(argv + ["--out", str(here / name)]) for name, argv in RUNS}
    capsys.readouterr()
    src = str(Path(curvint.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups),
               PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, str(there), *groups],
                          input=json.dumps(RUNS), capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    codes_there, still_on = json.loads(proc.stdout.splitlines()[-1])
    assert still_on == []
    assert codes_there == codes
    assert {name: (there / name).read_bytes() for name, _ in RUNS} == {
        name: (here / name).read_bytes() for name, _ in RUNS}


def regenerate(runs=RUNS):
    """Rewrite the golden reports of ``runs`` and their manifest entries."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name, argv in runs:
        codes[name] = cli.main(argv + ["--out", str(GOLDEN_DIR / name)])
    MANIFEST.write_text(json.dumps(codes, indent=2) + "\n")
    return codes


if __name__ == "__main__":
    for name, code in regenerate().items():
        print(f"{name}: exit {code}", file=sys.stderr)
