"""Worker processes: which passes go to them, and how long they live."""

import contextlib
import ctypes
import dataclasses
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import curvint as cv
from curvint import quadrature
from curvint.fields import coordinate_field
from curvint.quadrature import FORK_POINTS, QuadratureGrid
from conftest import counting_fork

SRC = Path(cv.__file__).resolve().parent.parent

# Runs a 48^3 catalog verify at 2 workers, writes its worker pids to
# argv[2] and leaves as argv[1] says.  The handler registered before
# curvint is imported runs after curvint's own, and writes the pids
# still running then.
_SCRIPT = """
import atexit, os, sys
out = open(sys.argv[2], "w")
pids = []

def left():
    running = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            running.append(pid)
        except ProcessLookupError:
            pass
    out.write("left " + " ".join(map(str, running)) + "\\n")
    out.flush()

atexit.register(left)
from curvint import cli, quadrature
quadrature.default_workers = lambda: 2
code = cli.main(["verify", "--surface", "sphere3", "--field", "hopf", "--grid", "48",
                 "--workers", "2"])
pids[:] = [w.pid for w in quadrature._WORKERS]
out.write(f"code {code}\\n" + "pids " + " ".join(map(str, pids)) + "\\n")
out.flush()
if sys.argv[1] == "raise":
    raise RuntimeError("uncaught")
if sys.argv[1] == "_exit":
    os._exit(0)
"""


def _running(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return not stat.parent.parent.is_dir()  # no /proc: trust os.kill


@contextlib.contextmanager
def _subreaper():
    """Make this process the reaper of its orphaned descendants while the
    block runs (Linux ``prctl``), so that a worker whose host is gone
    becomes a child that this process can wait for."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("no child subreaper on this system")
    try:
        yield
    finally:
        prctl(_PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


_PR_SET_CHILD_SUBREAPER = 36


def _gone(pid, within):
    """Whether the orphaned descendant pid exits within ``within`` s; it is
    reaped here either way, killed first if it has not exited."""
    deadline = time.monotonic() + within
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:  # reaped by its host, or not ours
            return not _running(pid)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return False
        time.sleep(0.01)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("mode", ["exit", "raise", "_exit"])
def test_no_worker_outlives_its_host(tmp_path, mode):
    """A process that ran a catalog verify at 2 workers has one worker.
    On a normal exit and on an uncaught exception the exit handler has
    killed and reaped it before the process is gone; after ``os._exit``
    the worker sees EOF on its request pipe and leaves within 1 s."""
    record = tmp_path / "record"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with _subreaper():
        proc = subprocess.run([sys.executable, "-c", _SCRIPT, mode, str(record)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=120)
        lines = dict(line.split(" ", 1) for line in record.read_text().splitlines())
        pids = [int(p) for p in lines["pids"].split()]
        assert all(_gone(pid, 1.0 if mode == "_exit" else 0.0) for pid in pids)
    assert lines["code"].strip() == "0"
    assert len(pids) == 1
    assert proc.returncode == (1 if mode == "raise" else 0)
    if mode != "_exit":
        assert lines["left"].split() == []


def _sphere3(surfaces):
    surface = surfaces["sphere3"]
    grid = QuadratureGrid.build(surface, 48)
    assert grid.total_points > FORK_POINTS
    return surface, cv.get_field("hopf", surface), grid


def test_a_forked_copy_leaves_the_workers_alone(surfaces, monkeypatch):
    """A process forked by the user after the workers exist forgets them:
    its catalog pass forks a worker of its own and gets the bits of one
    worker, and stopping its workers, as its exit handler does, stops
    none of the parent's, whose next pass forks nothing."""
    monkeypatch.setattr(quadrature, "default_workers", lambda: 2)
    surface, field, grid = _sphere3(surfaces)
    want = repr(cv.verify_integral_formula(surface, field, grid, workers=1))
    assert repr(cv.verify_integral_formula(surface, field, grid, workers=2)) == want
    workers = list(quadrature._WORKERS)
    assert len(workers) == 1
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the user's copy: it never returns from here
        code = 1
        try:
            os.close(r)
            forks = counting_fork(monkeypatch)
            got = repr(cv.verify_integral_formula(surface, field, grid, workers=2))
            sent = pickle.dumps((got, len(forks)))
            quadrature._stop_workers()
            while sent:
                sent = sent[os.write(w, sent):]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with open(r, "rb") as pipe:
        data = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    got, forks_there = pickle.loads(data)
    assert got == want
    assert forks_there == 1
    forks = counting_fork(monkeypatch)
    assert repr(cv.verify_integral_formula(surface, field, grid, workers=2)) == want
    assert forks == []
    assert quadrature._WORKERS == workers


def test_a_worker_holds_no_file_of_its_host(surfaces, monkeypatch):
    """A pipe that the host had open when it forked its worker, and closes
    afterwards, reaches EOF at once: the worker closed its copy."""
    monkeypatch.setattr(quadrature, "default_workers", lambda: 2)
    surface, _, grid = _sphere3(surfaces)
    r, w = os.pipe()
    with open(r, "rb", buffering=0) as reader:
        try:
            cv.gauss_degree(surface, grid, workers=2)
        finally:
            os.close(w)
        assert len(quadrature._WORKERS) == 1
        assert select.select([reader], [], [], 5.0)[0] == [reader]
        assert reader.read(1) == b""


def _scaled(surface, s):
    """A copy of a surface's chart scaled by s: a user surface that keeps
    the catalog metadata, key included."""
    chart = surface.charts[0]
    scaled = dataclasses.replace(
        chart,
        position=lambda U: s * chart.position(U),
        first_partials=lambda U: s * chart.first_partials(U),
        second_partials=lambda U: s * chart.second_partials(U))
    return dataclasses.replace(surface, charts=(scaled,))


def _route(monkeypatch, surface, field, grid):
    """(report at 2 workers, report at 1, forks, workers) of a verify pass
    and a degree pass at 2 workers."""
    monkeypatch.setattr(quadrature, "default_workers", lambda: 2)

    def reports(workers):
        return repr((cv.verify_integral_formula(surface, field, grid, workers=workers),
                     cv.gauss_degree(surface, grid, workers=workers)))

    want = reports(1)
    forks = counting_fork(monkeypatch)
    return reports(2), want, len(forks), len(quadrature._WORKERS)


def test_user_surface_with_a_catalog_key_runs_inline(surfaces, monkeypatch):
    """A user surface whose metadata key is "sphere3" is not the catalog's
    object: both its passes run in this process, and nothing is forked."""
    surface, _, grid = _sphere3(surfaces)
    user = _scaled(surface, 2.0)
    assert user.metadata.key == "sphere3"
    assert cv.catalog._key_of(user) is None
    got, want, forks, workers = _route(monkeypatch, user, cv.get_field("hopf", user), grid)
    assert got == want
    assert (forks, workers) == (0, 0)


def test_field_without_coefficients_runs_its_verify_inline(surfaces, monkeypatch):
    """The hopf field given by its callables alone is evaluated by calling
    them, so its verify pass runs in this process; the degree pass, which
    has no field, forks the one worker and goes to it."""
    surface, hopf, grid = _sphere3(surfaces)
    field = cv.TangentField(hopf.ambient_value, hopf.ambient_jacobian, key="hopf")
    got, want, forks, workers = _route(monkeypatch, surface, field, grid)
    assert got == want
    assert (forks, workers) == (1, 1)


def test_user_coordinate_field_goes_to_the_workers(surfaces, monkeypatch):
    """A coordinate field the user builds on the catalog surface is read
    off the geometry by its coefficients: both passes go to the one worker,
    and they give the catalog hopf field's bits."""
    surface, hopf, grid = _sphere3(surfaces)
    field = coordinate_field(surface, (0.0, 1.0, 1.0), key="mine")
    got, want, forks, workers = _route(monkeypatch, surface, field, grid)
    assert got == want
    assert (forks, workers) == (1, 1)
    catalog = cv.verify_integral_formula(surface, hopf, grid, workers=1)
    assert got == repr((dataclasses.replace(catalog, field_key="mine"),
                        cv.gauss_degree(surface, grid, workers=1)))


def test_grid_not_made_by_build_goes_to_the_workers(surfaces, monkeypatch):
    """A pass spec carries its grids, rules and all, so a grid whose rules
    are not the ones ``QuadratureGrid.build`` makes of its counts goes to
    the worker as it is: at 2 workers its passes give its own bits at one
    worker, which differ from the built grid's."""
    surface, field, grid = _sphere3(surfaces)
    cg = grid.charts[0]
    # the Gauss axis: a shifted periodic axis would move the integrals of
    # this rotation-invariant integrand by rounding only
    moved = dataclasses.replace(cg.rules[0], nodes=cg.rules[0].nodes + 1e-3)
    odd = dataclasses.replace(grid, charts=(
        dataclasses.replace(cg, rules=(moved, cg.rules[1], cg.rules[2])),))
    assert quadrature._spec(surface, quadrature._Kernel("eta", surface, field), (odd,))
    got, want, forks, workers = _route(monkeypatch, surface, field, odd)
    assert got == want
    assert (forks, workers) == (1, 1)
    assert got != repr((cv.verify_integral_formula(surface, field, grid, workers=1),
                        cv.gauss_degree(surface, grid, workers=1)))
    assert np.array_equal(odd.charts[0].rules[1].nodes, cg.rules[1].nodes)
