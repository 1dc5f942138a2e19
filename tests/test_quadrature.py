"""Grid construction, volumes, refinement, and reduction determinism."""

import dataclasses
import errno
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvint as cv
import curvint.degree
import curvint.fields
import curvint.quadrature
from curvint._reduction import exact_row_sums
from curvint.quadrature import BLOCK, FORK_POINTS, QuadratureGrid
from conftest import CATALOG_PAIRS, counting_fork


def ones(ci, U):
    return np.ones(len(U))


def test_sphere3_volume(surfaces):
    surface = surfaces["sphere3"]
    grid = QuadratureGrid.build(surface, (32, 64, 64))
    res = cv.integrate(surface, ones, grid)
    target = 2.0 * np.pi**2
    assert abs(res.value - target) < 1e-8 * target
    assert res.nodes == 32 * 64 * 64
    assert res.estimated_error >= 0.0


def test_torus2_area(surfaces):
    surface = surfaces["torus2"]
    res = cv.integrate(surface, ones, QuadratureGrid.build(surface, 48))
    target = 8.0 * np.pi**2  # 4 pi^2 R r
    assert abs(res.value - target) < 1e-10 * target


def test_tube_t3_volume_closed_form(surfaces):
    surface = surfaces["tube-t3"]
    res = cv.integrate(surface, ones, QuadratureGrid.build(surface, 24))
    target = 8.0 * np.pi**3 * 2.0 * 0.3  # 8 pi^3 R rho r
    assert abs(res.value - target) < 1e-9 * target


def test_revs1s2_volume_closed_form(surfaces):
    surface = surfaces["revs1s2"]
    res = cv.integrate(surface, ones, QuadratureGrid.build(surface, 24))
    target = 16.0 * np.pi**2  # 8 pi^2 R r^2
    assert abs(res.value - target) < 1e-9 * target


def test_ellipsoid_volume_self_consistent(surfaces):
    surface = surfaces["ellipsoid3"]
    coarse = cv.integrate(surface, ones, QuadratureGrid.build(surface, 24))
    fine = cv.integrate(surface, ones, QuadratureGrid.build(surface, 48))
    assert abs(coarse.value - fine.value) < 1e-6 * fine.value


def test_refinement_reduces_estimated_error(surfaces):
    """On a deliberately wiggly integrand the estimate drops monotonically."""
    surface = surfaces["torus2"]

    def wiggly(ci, U):
        return np.exp(np.sin(3.0 * U[:, 0]) + np.cos(2.0 * U[:, 1]))

    errs = [cv.integrate(surface, wiggly, QuadratureGrid.build(surface, c)).estimated_error
            for c in (12, 24, 48)]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_grid_rules(surfaces):
    surface = surfaces["sphere3"]
    grid = QuadratureGrid.build(surface, (16, 12, 12))
    rules = grid.charts[0].rules
    lo = surface.charts[0].lo
    hi = surface.charts[0].hi
    for a, rule in enumerate(rules):
        assert np.all(rule.weights > 0)
        assert abs(np.sum(rule.weights) - (hi[a] - lo[a])) < 1e-12
        # nodes strictly inside the domain, away from degenerate endpoints
        assert np.all(rule.nodes > lo[a])
        assert np.all(rule.nodes < hi[a])
    assert rules[0].periodic is False
    assert rules[1].periodic is True


def _meshgrid_chart_grid(chart, counts):
    """Points and weights by meshgrid and stack, as QuadratureGrid.build once made them."""
    rules = [curvint.quadrature._periodic_rule(lo, hi, c) if per
             else curvint.quadrature._gauss_rule(lo, hi, c)
             for lo, hi, per, c in zip(chart.lo, chart.hi, chart.periodic, counts)]
    mesh = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[r.weights for r in rules], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wmesh:
        weights = weights * w.reshape(-1)
    return points, weights


@pytest.mark.parametrize("name", cv.surface_names())
def test_grid_bits_match_meshgrid_build(surfaces, name):
    """Broadcast points and outer-product weights keep the meshgrid bits."""
    surface = surfaces[name]
    for counts in (2, 8, 17, 48, (9, 16, 33)[:surface.dim]):
        grid = QuadratureGrid.build(surface, counts)
        for chart, cg in zip(surface.charts, grid.charts):
            points, weights = _meshgrid_chart_grid(chart, grid.counts)
            assert cg.points.flags.c_contiguous and cg.weights.flags.c_contiguous
            np.testing.assert_array_equal(cg.points.view(np.uint64), points.view(np.uint64))
            np.testing.assert_array_equal(cg.weights.view(np.uint64),
                                          weights.view(np.uint64))
            for start in (0, 5, cg.size - 3):  # a span is a slice of the grid
                got = cg.span(start, start + 7)
                np.testing.assert_array_equal(got[0], points[start:start + 7])
                np.testing.assert_array_equal(got[1], weights[start:start + 7])


def test_gauss_panels_split():
    surface = cv.get_surface("sphere3")
    for count in (8, 16, 17, 48, 50, 96):
        grid = QuadratureGrid.build(surface, (count, 8, 8))
        rule = grid.charts[0].rules[0]
        assert len(rule.nodes) == count
        assert abs(np.sum(rule.weights) - np.pi / 2) < 1e-12


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_worker_count_bitwise_invariance(surfaces, workers):
    surface = surfaces["ellipsoid3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 16)
    base = cv.integrate_eta(surface, field, grid, workers=None)
    res = cv.integrate_eta(surface, field, grid, workers=workers)
    for k in base:
        assert res[k].value == base[k].value
        assert res[k].estimated_error == base[k].estimated_error
    # block maxima: the foliation peaks over 4 blocks of a 24^3 grid
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 24)
    base = cv.foliation_obstruction_report(surface, field, grid, workers=None)
    res = cv.foliation_obstruction_report(surface, field, grid, workers=workers)
    assert res.max_defect.hex() == base.max_defect.hex()
    assert res.max_rank == base.max_rank


def test_integrate_eta_sphere3(surfaces):
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    res = cv.integrate_eta(surface, field, QuadratureGrid.build(surface, 24))
    target = 2.0 * np.pi**2
    assert abs(res[0].value - target) < 1e-6 * target
    assert abs(res[1].value) < 1e-8 * target
    assert abs(res[2].value - target) < 1e-6 * target


def test_integrate_eta_torus2_gauss_bonnet(surfaces):
    """Total curvature of the flat-Euler-characteristic torus vanishes."""
    surface = surfaces["torus2"]
    field = cv.get_field("theta", surface)
    res = cv.integrate_eta(surface, field, QuadratureGrid.build(surface, 32))
    vol = 8.0 * np.pi**2
    assert abs(res[0].value) < 1e-8 * vol
    assert abs(res[1].value) < 1e-8 * vol


def test_integrate_eta_k_selection(surfaces):
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 12)
    res = cv.integrate_eta(surface, field, grid, k=[0, 2])
    assert sorted(res) == [0, 2]
    with pytest.raises(ValueError):
        cv.integrate_eta(surface, field, grid, k=[5])


def test_grid_surface_mismatch(surfaces):
    grid = QuadratureGrid.build(surfaces["sphere3"], 8)
    with pytest.raises(ValueError):
        cv.integrate(surfaces["tube-t3"], ones, grid)


def test_grid_count_validation(surfaces):
    with pytest.raises(ValueError):
        QuadratureGrid.build(surfaces["sphere3"], (8, 8))
    with pytest.raises(ValueError):
        QuadratureGrid.build(surfaces["sphere3"], (1, 8, 8))


def test_weight_fraction_scales_contribution(surfaces):
    base = surfaces["torus2"].charts[0]
    half = cv.Chart(lo=base.lo, hi=base.hi, periodic=base.periodic,
                    position=base.position, first_partials=base.first_partials,
                    second_partials=base.second_partials, weight_fraction=0.5)
    surface = cv.ChartedHypersurface(n_intrinsic=1, charts=(half,))
    res = cv.integrate(surface, ones, QuadratureGrid.build(surface, 32))
    assert abs(res.value - 4.0 * np.pi**2) < 1e-9


def test_error_carries_chart_point(surfaces):
    def bad(ci, U):
        raise cv.DegenerateImmersion("synthetic failure at u=[0.0]")

    surface = surfaces["torus2"]
    with pytest.raises(cv.DegenerateImmersion, match="chart 0"):
        cv.integrate(surface, bad, QuadratureGrid.build(surface, 8))


def _no_fork():
    raise AssertionError("os.fork called")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pass_below_the_threshold_does_not_fork(surfaces, monkeypatch):
    """A dispatch of at most FORK_POINTS points runs inline, whatever the
    worker count: torus2 at 128 x 128 with its half grid (20480 points)."""
    monkeypatch.setattr(os, "fork", _no_fork)
    surface = surfaces["torus2"]
    grid = QuadratureGrid.build(surface, 128)
    assert grid.total_points + grid.half(surface).total_points <= FORK_POINTS
    res = cv.integrate(surface, ones, grid, workers=4)
    assert res.value == pytest.approx(8.0 * np.pi**2, rel=1e-12)


def test_fork_count_is_capped(monkeypatch):
    """A dispatch of a worker that carries a pass spec forks at most
    min(workers, tasks, default_workers()) - 1 worker processes, however
    many workers it is asked for, and a share whose worker could not be
    forked runs in the calling process; a worker without a spec forks
    nothing.  The fork here counts its calls and fails, so the test starts
    no process."""
    calls = []

    def failing_fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "no fork in this test")

    def square(t):
        return t * t

    square.spec = b"not sent: no worker starts"
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(curvint.quadrature, "default_workers", lambda: 3)
    for tasks, workers, forks in ((5, 10000, 2), (2, 10000, 1), (5, 2, 1), (1, 10000, 0)):
        calls.clear()
        got = curvint.quadrature._run_blocks(list(range(tasks)), square, workers)
        assert got == [t * t for t in range(tasks)]
        assert len(calls) == forks
    calls.clear()
    assert curvint.quadrature._run_blocks(list(range(5)), lambda t: t * t, 10000) == [
        t * t for t in range(5)]
    assert calls == []


def _torus_above_the_threshold(surface):
    """A torus2 grid of whole 128-row blocks whose pass (with or without
    its half grid) forks; block b starts at theta row 128 b."""
    grid = QuadratureGrid.build(surface, (128 * (FORK_POINTS // BLOCK + 1), 64))
    assert grid.total_points > FORK_POINTS
    return grid, grid.charts[0].rules[0].nodes[::128]


def _patch_degree_kernel(monkeypatch, action):
    """Have the degree pass's kernel call ``action(U)`` before each block.

    The degree pass goes to the worker processes, which the first dispatch
    after this patch forks, so they run ``action`` too."""
    original = curvint.degree.shape_determinant_batch

    def patched(surface, ci, U, ws=None):
        action(U)
        return original(surface, ci, U, ws=ws)

    monkeypatch.setattr(curvint.degree, "shape_determinant_batch", patched)


def _stop_and_assert_no_child(workers):
    """The pass left ``workers`` worker processes and no other child."""
    assert len(curvint.quadrature._WORKERS) == workers
    curvint.quadrature._stop_workers()
    _assert_no_child()


@pytest.mark.parametrize("failing", [(1, 2), (2, 3)])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_pass_raises_the_first_failing_block(surfaces, monkeypatch, workers, failing):
    """Two blocks of a pass above the threshold fail with different
    messages, and the lower block's error is raised at every worker count,
    on both routes.  ``integrate``'s user integrand runs in this process
    and forks nothing; the degree pass of the catalog torus2 forks
    workers - 1 worker processes, which outlive it, and leaves no other
    child: at 2 workers, (1, 2) has the lower failing block in the worker
    and (2, 3) in this process."""
    monkeypatch.setattr(curvint.quadrature, "default_workers", lambda: 3)
    forks = counting_fork(monkeypatch)
    surface = surfaces["torus2"]
    grid, starts = _torus_above_the_threshold(surface)

    def fail(U):
        for b in failing:
            if U[0, 0] == starts[b]:
                raise cv.DegenerateImmersion(f"block {b}")

    def integrand(ci, U):
        fail(U)
        return np.ones(len(U))

    with pytest.raises(cv.DegenerateImmersion, match=rf"^chart 0: block {failing[0]}$"):
        cv.integrate(surface, integrand, grid, workers=workers)
    assert forks == []
    _assert_no_child()
    _patch_degree_kernel(monkeypatch, fail)
    with pytest.raises(cv.DegenerateImmersion, match=rf"^chart 0: block {failing[0]}$"):
        cv.gauss_degree(surface, grid, workers=workers)
    assert len(forks) == workers - 1
    _stop_and_assert_no_child(workers - 1)


def test_interrupt_in_a_forked_pass_reaps_the_children(surfaces, monkeypatch):
    """A KeyboardInterrupt in this process's own share of a catalog pass
    above the threshold kills and reaps the worker processes before it
    propagates; in ``integrate``'s pass, which runs here, it forks nothing
    and leaves no child.  The next catalog pass forks a worker again and
    gets the bits of one worker."""
    surface = surfaces["torus2"]
    grid, _ = _torus_above_the_threshold(surface)
    parent = os.getpid()

    def interrupt(U):
        if os.getpid() == parent and interrupting:
            raise KeyboardInterrupt

    def integrand(ci, U):
        interrupt(U)
        return np.ones(len(U))

    interrupting = True
    forks = counting_fork(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        cv.integrate(surface, integrand, grid, workers=2)
    assert forks == []
    _assert_no_child()
    _patch_degree_kernel(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        cv.gauss_degree(surface, grid, workers=2)
    assert len(forks) == 1
    _stop_and_assert_no_child(0)
    interrupting = False
    want = repr(cv.gauss_degree(surface, grid, workers=1))
    assert repr(cv.gauss_degree(surface, grid, workers=2)) == want
    assert len(forks) == 2
    _stop_and_assert_no_child(1)


def test_share_of_a_dead_child_runs_here(surfaces, monkeypatch):
    """A worker process that dies without sending its results (here it
    exits at its first block) leaves its share to this process, and the
    catalog pass gives the bits of one worker and leaves no worker behind.
    ``integrate``'s integrand, which would die in another process, runs in
    this one and gives the bits of one worker too."""
    surface = surfaces["torus2"]
    grid, _ = _torus_above_the_threshold(surface)
    parent = os.getpid()

    def die(U):
        if os.getpid() != parent:
            os._exit(3)

    def integrand(ci, U):
        die(U)
        return np.cos(U[:, 0]) ** 2

    want = repr(cv.integrate(surface, integrand, grid, workers=1))
    assert repr(cv.integrate(surface, integrand, grid, workers=2)) == want
    _assert_no_child()
    _patch_degree_kernel(monkeypatch, die)
    want = repr(cv.gauss_degree(surface, grid, workers=1))
    assert repr(cv.gauss_degree(surface, grid, workers=2)) == want
    _stop_and_assert_no_child(0)


def test_user_integrand_runs_here_once_per_block(surfaces, monkeypatch):
    """``integrate``'s integrand on torus2, above the threshold at 2
    workers, runs in this process with ``os.fork`` raising: once per block
    of the grid and of its half grid, in block order, and its appends stay
    visible.  With blocks 1 and 2 failing, block 1's error is raised after
    one call for each of blocks 0 and 1."""
    monkeypatch.setattr(curvint.quadrature, "default_workers", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    surface = surfaces["torus2"]
    grid, starts = _torus_above_the_threshold(surface)
    blocks = [(os.getpid(), g.charts[0].span(b, b + 1)[0][0].tolist())
              for g in (grid, grid.half(surface))
              for b in range(0, g.charts[0].size, BLOCK)]
    calls = []

    def integrand(ci, U):
        calls.append((os.getpid(), U[0].tolist()))
        for b in failing:
            if U[0, 0] == starts[b]:
                raise cv.DegenerateImmersion(f"block {b}")
        return np.ones(len(U))

    failing = ()
    res = cv.integrate(surface, integrand, grid, workers=2)
    assert res.value == pytest.approx(8.0 * np.pi**2, rel=1e-12)
    assert calls == blocks
    calls.clear()
    failing = (1, 2)
    with pytest.raises(cv.DegenerateImmersion, match=r"^chart 0: block 1$"):
        cv.integrate(surface, integrand, grid, workers=2)
    assert calls == blocks[:2]
    _assert_no_child()


def test_forked_passes_keep_the_bits(surfaces, monkeypatch):
    """sphere3/hopf at 48^3, above the threshold: verify, integrate and
    the degree give the bits of one worker at 2 and 3 processes.  Verify
    and the degree go to the worker processes, which the first pass at 2
    processes forks (1) and the first at 3 adds to (1 more); integrate
    runs in this process and forks nothing.  No other child is left."""
    monkeypatch.setattr(curvint.quadrature, "default_workers", lambda: 3)
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 48)
    assert grid.total_points > FORK_POINTS

    def reports(workers):
        return repr((cv.verify_integral_formula(surface, field, grid, workers=workers),
                     cv.integrate(surface, ones, grid, workers=workers),
                     cv.gauss_degree(surface, grid, workers=workers)))

    forks = counting_fork(monkeypatch)
    want = reports(1)
    assert not forks
    assert reports(2) == want
    assert len(forks) == 1
    assert reports(2) == want
    assert len(forks) == 1
    assert reports(3) == want
    assert len(forks) == 2
    _stop_and_assert_no_child(2)


def _all_reports(surfaces, workers):
    """repr of every grid pass for every catalog pair, on grids of one full
    and one partial block: 24^3 (13824 points) and 112 x 120 (13440) for
    torus2."""
    out = []
    for skey, fkey in CATALOG_PAIRS:
        surface = surfaces[skey]
        field = cv.get_field(fkey, surface)
        grid = QuadratureGrid.build(surface, (112, 120) if surface.dim == 2 else 24)
        out.append(repr((
            cv.verify_integral_formula(surface, field, grid, workers=workers),
            cv.integrate_eta(surface, field, grid, workers=workers),
            cv.gauss_degree(surface, grid, workers=workers),
            cv.foliation_obstruction_report(surface, field, grid, workers=workers))))
    return out


@pytest.fixture(scope="module")
def one_worker_reports(surfaces):
    return _all_reports(surfaces, 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spans_give_the_reports_of_blocks(surfaces, one_worker_reports, monkeypatch, workers):
    """Every pass evaluates BLOCK-point batches, whatever the worker count,
    and every report has the bits of the one-worker run."""
    sizes = set()
    chart_forms = curvint.quadrature.chart_forms_batch

    def recording(surface, field, ci, U, **kwargs):
        sizes.add(len(U))
        return chart_forms(surface, field, ci, U, **kwargs)

    monkeypatch.setattr(curvint.quadrature, "chart_forms_batch", recording)
    assert _all_reports(surfaces, workers) == one_worker_reports
    assert max(sizes) == BLOCK


def test_span_error_is_the_first_failing_block(surfaces):
    """A user chart rank-deficient on one theta row and a user field that
    vanishes on another.  In one block the kernel checks the chart first,
    so the pass names the chart's point; over two blocks the earlier
    block's error wins.  Each names chart 0 and the failing point, with
    the same message at every worker count."""
    base = surfaces["torus2"].charts[0]
    cases = [((128, 64), 100, 10, cv.DegenerateImmersion, "rank-deficient", 100),  # one block
             ((256, 64), 200, 10, cv.VanishingField, "vanishes", 10)]  # two blocks
    for counts, chart_at, field_at, error, what, named in cases:
        grid = QuadratureGrid.build(surfaces["torus2"], counts)
        theta = grid.charts[0].rules[0].nodes
        assert grid.total_points == counts[0] // 128 * BLOCK

        def first_partials(U, row=theta[chart_at]):
            J = np.array(base.first_partials(U))
            J[U[:, 0] == row] = np.nan
            return J

        def value(ci, U, row=theta[field_at]):
            return base.first_partials(U)[:, :, 0] * (U[:, :1] - row)

        chart = dataclasses.replace(base, first_partials=first_partials)
        surface = cv.ChartedHypersurface(n_intrinsic=1, charts=(chart,))
        field = cv.TangentField(ambient_value=value, key="pinched")
        errors = []
        for workers in (1, 2, 3):
            with pytest.raises(error, match=what) as exc:
                cv.integrate_eta(surface, field, grid, workers=workers)
            errors.append(str(exc.value))
        assert len(set(errors)) == 1
        assert errors[0].startswith("chart 0: ")
        assert f"u=[{float(theta[named])!r}, " in errors[0]


def test_integrand_views_of_its_own_calls_keep_their_bits(surfaces):
    """An integrand that returns a view of its own ``geometry_batch`` or
    ``chart_forms_batch`` output at other points gives, at every worker
    count, the bits of one that returns a copy: a pass hands its workspaces
    to the engine's own kernels only, so it never writes into the arrays of
    a user's call."""
    surface = surfaces["ellipsoid3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 24)

    def metric(ci, U):
        return curvint.quadrature.geometry_batch(surface, ci, 0.9 * U + 0.05).metric[:, 0, 0]

    def second_form(ci, U):
        return curvint.quadrature.geometry_batch(surface, ci, 0.9 * U + 0.05).second_form[:, 0, 1]

    def field_form(ci, U):
        return curvint.fields.chart_forms_batch(surface, field, ci, 0.9 * U + 0.05)[1][:, 0, 1]

    for view in (metric, second_form, field_form):
        want = cv.integrate(surface, lambda ci, U: view(ci, U).copy(), grid, workers=1)
        for workers in (1, 2, 3):
            got = cv.integrate(surface, view, grid, workers=workers)
            assert ((got.value.hex(), got.estimated_error.hex())
                    == (want.value.hex(), want.estimated_error.hex()))


def test_pass_inside_a_user_field_keeps_the_bits(surfaces):
    """A user field whose callable runs a grid pass of its own, while the
    block that called it holds the thread's workspace, gives the bits of
    the same field without it: the inner pass makes a workspace of its own."""
    surface = surfaces["sphere3"]
    hopf = cv.get_field("hopf", surface)
    inner = QuadratureGrid.build(surface, 8)
    plain = cv.TangentField(ambient_value=hopf.ambient_value,
                            ambient_jacobian=hopf.ambient_jacobian, key="hopf")

    def value(ci, U):
        cv.integrate_eta(surface, hopf, inner)
        return hopf.ambient_value(ci, U)

    nesting = dataclasses.replace(plain, ambient_value=value)
    grid = QuadratureGrid.build(surface, 16)
    assert (repr(cv.integrate_eta(surface, nesting, grid))
            == repr(cv.integrate_eta(surface, plain, grid)))


def test_calls_outside_a_pass_return_fresh_arrays(surfaces):
    """After a pass has left the thread its workspace, two successive
    public calls share no memory: only a pass's kernels take a workspace."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    cv.integrate_eta(surface, field, QuadratureGrid.build(surface, 24), workers=2)
    assert curvint.quadrature._LOCAL.ws is not None
    U = QuadratureGrid.build(surface, 24).charts[0].span(0, BLOCK)[0]
    calls = (lambda V: curvint.quadrature.geometry_batch(surface, 0, V,
                                                         coefficients=field.coefficients),
             lambda V: curvint.fields.chart_forms_batch(surface, field, 0, V))
    for call in calls:
        first, second = call(U), call(U[::-1])
        arrays = [[a for a in out if isinstance(a, np.ndarray)] for out in (first, second)]
        assert len(arrays[0]) >= 4
        for a in arrays[0]:
            for b in arrays[1]:
                assert not np.shares_memory(a, b)


def test_vanishing_user_field_names_chart_and_point(surfaces):
    """A field that vanishes at a grid node stops integrate_eta there."""
    surface = surfaces["torus2"]
    grid = QuadratureGrid.build(surface, 8)
    theta0 = grid.charts[0].rules[0].nodes[0]

    def value(ci, U):
        # the theta direction scaled by theta - theta0: zero on a node row
        return surface.charts[ci].first_partials(U)[:, :, 0] * (U[:, :1] - theta0)

    field = cv.TangentField(ambient_value=value, key="pinched")
    with pytest.raises(cv.VanishingField, match=r"^chart 0: .* at u=\[[^]]+\]$"):
        cv.integrate_eta(surface, field, grid)


def test_gauss_rules_cached_read_only():
    """Each panel size's rule is leggauss's, computed once and read-only."""
    for size in range(1, 17):
        x, w = curvint.quadrature._legendre(size)
        ref_x, ref_w = np.polynomial.legendre.leggauss(size)
        np.testing.assert_array_equal(x.view(np.uint64), ref_x.view(np.uint64))
        np.testing.assert_array_equal(w.view(np.uint64), ref_w.view(np.uint64))
        assert curvint.quadrature._legendre(size)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _fsum_rows(x):
    return np.array([math.fsum(row.tolist()) for row in x])


def _adversarial_rows(seed, m, B):
    """Rows mixing magnitudes 1e-310..1e300, cancelling pairs and signed zeros."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, B)) * 10.0 ** rng.uniform(-310, 300, (m, B))
    pairs = rng.random((m, B)) < 0.3         # cancel x[j] against a later entry
    x[:, 1:][pairs[:, 1:]] = -x[:, :-1][pairs[:, 1:]] * (1.0 + 2.0**-52 * rng.integers(-2, 3))
    zeros = rng.random((m, B)) < 0.1
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    if seed % 4 == 0:
        x[0] = rng.choice([0.0, -0.0], size=B)  # a row of zeros keeps fsum's sign
    if seed % 4 == 1:
        x[-1] *= 1e-300                          # a row of subnormals
    if seed % 4 == 2:
        x[:, : B // 2] = 10.0 ** rng.integers(-20, 20)  # exact equal terms
        x[:, B // 2:] = -x[:, : B - B // 2]
    if seed % 4 == 3:
        # same-sign terms just under a power of two fill every round's headroom
        x[0] = np.ldexp(1.0 - rng.random(B) * 2.0**-40, int(rng.integers(-1000, 990)))
    return np.ascontiguousarray(x)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), B=st.integers(1, 5000))
def test_exact_row_sums_match_fsum_bitwise(seed, m, B):
    x = _adversarial_rows(seed, m, B)
    got = exact_row_sums(x)
    np.testing.assert_array_equal(got.view(np.uint64), _fsum_rows(x).view(np.uint64))


def test_exact_row_sums_rows_with_different_round_counts():
    """Rows that leave the extraction loop after different rounds keep their
    own sums: terms over 600 decades take several rounds, small integers one,
    a row of zeros none, and the sums match fsum in one call and in pairs."""
    rng = np.random.default_rng(7)
    B = 4096
    wide = rng.standard_normal(B) * 10.0 ** rng.uniform(-300, 300, B)
    x = np.stack([rng.integers(-1000, 1000, B).astype(float), wide,
                  np.zeros(B), -wide[::-1] * 1e-8, np.full(B, 0.1)])
    want = _fsum_rows(x)
    np.testing.assert_array_equal(exact_row_sums(x).view(np.uint64), want.view(np.uint64))
    for i in range(len(x)):
        got = exact_row_sums(np.ascontiguousarray(x[[i, 1]]))
        np.testing.assert_array_equal(got.view(np.uint64), want[[i, 1]].view(np.uint64))


@pytest.mark.parametrize("row", [
    [1.0, np.inf, 2.0],
    [np.nan, 1.0],
    [-np.inf, 1e300],
    [np.inf, -np.inf],           # fsum raises ValueError
    [1e308, 1e308],              # fsum raises OverflowError
    [1e308, -1e308, 1.0],        # sigma would overflow; the sum does not
    [8e307, 8e307, -1e-300],
])
def test_exact_row_sums_non_finite_and_overflow_follow_fsum(row):
    x = np.array([row, [1.0] * len(row)])
    try:
        want = _fsum_rows(x)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_row_sums(x)
        return
    got = exact_row_sums(x)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_eta_pass_hands_fsum_few_values(surfaces, monkeypatch):
    """Block sums extract in numpy; fsum only adds a few exact round sums."""
    lengths = []
    fsum = math.fsum

    def counting(values):
        values = list(values)
        lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    surface = surfaces["sphere3"]
    grid = QuadratureGrid.build(surface, 48)
    curvint.quadrature._eta_integrals(surface, cv.get_field("hopf", surface), grid, 1)
    assert lengths and max(lengths) <= 64


def _block_size_bits(surfaces):
    """Bits of the eta sums of both grids, the degree's raw value and the
    foliation defect of every catalog pair, on grids of several blocks:
    128^2 for torus2 and 32^3 for the others."""
    out = []
    for skey, fkey in CATALOG_PAIRS:
        surface = surfaces[skey]
        field = cv.get_field(fkey, surface)
        grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 32)
        values, halves = curvint.quadrature._eta_integrals(surface, field, grid, 1)
        out.append((values.tobytes(), halves.tobytes(),
                    cv.gauss_degree(surface, grid, workers=1).raw.hex(),
                    cv.foliation_obstruction_report(surface, field, grid,
                                                    workers=1).max_defect.hex()))
    return out


@pytest.fixture(scope="module")
def block_size_bits(surfaces):
    return _block_size_bits(surfaces)


@pytest.mark.parametrize("block", [4096, 3000, 1000])
def test_report_bits_do_not_depend_on_the_block_size(surfaces, block_size_bits,
                                                     monkeypatch, block):
    """Each integral is the exactly rounded sum of its weighted terms, so
    another block size, which splits the grids into other blocks, moves
    no bit of the sums or of the reports."""
    assert BLOCK == 8192
    monkeypatch.setattr(curvint.quadrature, "BLOCK", block)
    assert _block_size_bits(surfaces) == block_size_bits
