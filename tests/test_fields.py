"""Field projection, adapted frames, and derivative components."""

import dataclasses
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvint as cv
import curvint.manifold
import curvint.quadrature
from curvint.fields import (
    chart_forms_batch, coordinate_field, field_batch, project_field_batch,
    shape_data_batch)
from curvint.manifold import SECOND_CHUNK, geometry_batch
from curvint.quadrature import BLOCK, QuadratureGrid
from conftest import (
    CATALOG_PAIRS, ambient_shape_data, domain_samples, field_jacobian, metric_inv,
    without_second_partials)

N_SAMPLES = 100


def test_hopf_raw_already_unit_tangent(surfaces):
    """The raw value is unit and tangent, so projection leaves it alone."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    u = np.array([np.pi / 4, 0.0, 0.0])
    raw = field.ambient_value(0, u[None])[0]
    v = cv.normalize_and_project(field, surface, 0, u)
    np.testing.assert_allclose(v, raw, atol=1e-14)
    x = surfaces["sphere3"].charts[0].position(u[None])[0]
    np.testing.assert_allclose(raw, [-x[1], x[0], -x[3], x[2]], atol=1e-15)


# (-x2, x1, -x4, x3): the unit Killing field along the Hopf circles of S^3
_HOPF = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
_ELL_A = np.diag([2.0, 1.0, 1.0, 1.0])


def _ambient_field(skey, chart, U):
    """Value and jacobian of each catalog field from its ambient formula."""
    if skey in ("sphere3", "ellipsoid3"):
        # linear field y -> M y; on the ellipsoid y = A x, pushed forward by A
        M = _HOPF if skey == "sphere3" else _ELL_A @ _HOPF @ np.linalg.inv(_ELL_A)
        return chart.position(U) @ M.T, M @ chart.first_partials(U)
    a = 1 if skey == "tube-t3" else 0  # fiber is the w circle, theta the th one
    return chart.first_partials(U)[:, :, a], chart.second_partials(U)[:, :, a, :]


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_catalog_field_matches_ambient_formula(surfaces, skey, fkey):
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    U = domain_samples(surface, N_SAMPLES)
    value, jac = _ambient_field(skey, surface.charts[0], U)
    np.testing.assert_allclose(field.ambient_value(0, U), value, rtol=0, atol=1e-14)
    np.testing.assert_allclose(field.ambient_jacobian(0, U), jac, rtol=0, atol=1e-14)


def test_normal_field_vanishes(surfaces):
    surface = surfaces["sphere3"]
    field = cv.TangentField(
        ambient_value=lambda ci, U: surface.charts[ci].position(U),
        key="radial",
    )  # raw equals the normal on the unit sphere: zero tangential part
    with pytest.raises(cv.VanishingField):
        cv.normalize_and_project(field, surface, 0, np.array([0.8, 1.0, 2.0]))


def test_ellipsoid_pushforward_tangent(surfaces):
    surface = surfaces["ellipsoid3"]
    field = cv.get_field("hopf", surface)
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    raw = field.ambient_value(0, U)
    dots = np.abs(np.einsum("xq,xq->x", raw, geo.normal))
    assert np.max(dots) < 1e-10 * np.max(np.linalg.norm(raw, axis=1))
    v = cv.normalize_and_project(field, surface, 0, U[0])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(v @ geo.normal[0]) < 1e-10


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_adapted_frame_orthonormal_and_spanning(surfaces, skey, fkey):
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    p = surface.dim
    for u in domain_samples(surface, 10):
        v = cv.normalize_and_project(field, surface, 0, u)
        fr = cv.adapted_frame(surface, 0, u, v)
        vecs = np.vstack([fr.e, fr.v])
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(p))) < 1e-10
        assert np.max(np.abs(vecs @ fr.normal)) < 1e-10
        # frame spans the chart tangent space: compare projectors
        geo = geometry_batch(surface, 0, u[None], second=False)
        J = geo.jacobian[0]
        P_chart = J @ np.linalg.solve(J.T @ J, J.T)
        P_frame = vecs.T @ vecs
        assert np.max(np.abs(P_chart - P_frame)) < 1e-10


def test_adapted_frame_deterministic(surfaces):
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    u = np.array([0.9, 2.2, 4.0])
    v = cv.normalize_and_project(field, surface, 0, u)
    f1 = cv.adapted_frame(surface, 0, u, v)
    f2 = cv.adapted_frame(surface, 0, u, v)
    assert np.array_equal(f1.e, f2.e)
    assert np.array_equal(f1.v, f2.v)


def test_frame_pivot_discards_field_aligned_column(surfaces):
    """theta on torus2 is parallel to the first chart direction, so the one
    frame vector, orthogonal to it, points along phi."""
    surface = surfaces["torus2"]
    field = cv.get_field("theta", surface)
    u = np.array([1.2, 0.4])
    v = cv.normalize_and_project(field, surface, 0, u)
    fr = cv.adapted_frame(surface, 0, u, v)
    geo = geometry_batch(surface, 0, u[None], second=False)
    f_phi = geo.jacobian[0][:, 1]
    cosang = abs(fr.e[0] @ f_phi) / np.linalg.norm(f_phi)
    assert abs(cosang - 1.0) < 1e-12


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_frame_routes_span_the_same_v_perp(surfaces, skey, fkey):
    """adapted_frame and shape_data_batch give the same orthonormal basis
    of v^perp: the bases, and their projectors e^T e, agree within 1e-15 at
    every point of the 12^k grid.  Each route takes v's chart coordinates
    in its own way, so y_p, rounding noise where v is a chart direction,
    may differ in sign between them; the reflection's shift does not follow
    that sign (a shift that did gave bases up to 1.93 apart on torus2,
    revs1s2 and tube-t3)."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    U = QuadratureGrid.build(surface, 12).charts[0].points
    frame = shape_data_batch(surface, field, 0, U).frame
    for u, v, e in zip(U, frame.v, frame.e):
        got = cv.adapted_frame(surface, 0, u, v).e
        assert np.max(np.abs(got - e)) <= 1e-15
        assert np.max(np.abs(got.T @ got - e.T @ e)) <= 1e-15


@pytest.mark.parametrize("bad", ["2v", "v + 0.1N", "N"])
def test_adapted_frame_rejects_a_v_that_is_not_unit_tangent(surfaces, bad):
    """A v of norm 2, one with a normal part, or the normal itself."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    u = np.array([0.9, 2.2, 4.0])
    v = cv.normalize_and_project(field, surface, 0, u)
    N = cv.unit_normal(surface, 0, u)
    v = {"2v": 2.0 * v, "v + 0.1N": v + 0.1 * N, "N": N}[bad]
    with pytest.raises(cv.FrameNotOrthonormal, match=r"at u=\[0\.9, 2\.2, 4\.0\]"):
        cv.adapted_frame(surface, 0, u, v)


def test_shape_data_sphere3_hopf(surfaces):
    """Unit-sphere curvature with a unit Killing geodesic field."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    for u in domain_samples(surface, 10):
        sd = cv.shape_data(surface, field, 0, u)
        np.testing.assert_allclose(sd.h, np.eye(3), atol=1e-10)
        assert abs(sd.a[0, 0]) < 1e-10 and abs(sd.a[1, 1]) < 1e-10
        assert abs(sd.a[0, 1] + sd.a[1, 0]) < 1e-10
        assert abs(abs(sd.a[0, 1]) - 1.0) < 1e-10
        assert np.max(np.abs(sd.vvec)) < 1e-10


def test_shape_data_torus2_equator_geodesic(surfaces):
    surface = surfaces["torus2"]
    field = cv.get_field("theta", surface)
    sd = cv.shape_data(surface, field, 0, np.array([0.0, 0.0]))
    assert np.max(np.abs(sd.vvec)) < 1e-12
    # spec of the acceleration away from the equator: sin(phi)/(R + r cos(phi))
    ph = 1.1
    sd = cv.shape_data(surface, field, 0, np.array([0.3, ph]))
    expect = np.sin(ph) / (2.0 + np.cos(ph))
    assert abs(abs(sd.vvec[0]) - expect) < 1e-10


def test_shape_data_revs1s2_totally_geodesic_complement(surfaces):
    """theta's orthogonal distribution is tangent to round spheres: a == 0."""
    surface = surfaces["revs1s2"]
    field = cv.get_field("theta", surface)
    U = domain_samples(surface, 20)
    batch = shape_data_batch(surface, field, 0, U)
    assert np.max(np.abs(batch.data.a)) < 1e-12


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_shape_data_invariants(surfaces, skey, fkey):
    """Unit norm, tangency and the vanishing v-components at 100 points."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    U = domain_samples(surface, N_SAMPLES)
    batch = shape_data_batch(surface, field, 0, U)
    v, e, normal = batch.frame.v, batch.frame.e, batch.frame.normal
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.einsum("xq,xq->x", v, normal))) < 1e-10
    assert np.max(np.abs(np.einsum("xiq,xq->xi", e, normal))) < 1e-10
    assert np.max(np.abs(batch.dv_v_dot_v)) < 1e-10
    assert np.max(np.abs(batch.dv_e_dot_v)) < 1e-10
    assert np.max(batch.h_asymmetry) < 1e-8


def chart_eta(surface, field, chart_index, U, ws=None):
    """eta_k as the integral passes compute them: chart forms, no frame."""
    h, dv, det_g, _ = chart_forms_batch(surface, field, chart_index, U, ws=ws)
    return cv.eta_all(cv.ColumnSystem(H=h, V=dv)).values / det_g[:, None]


def frame_eta(surface, field, chart_index, U):
    """eta_k of the reference route: ambient derivatives, adapted frame,
    then h, a and vvec."""
    batch = ambient_shape_data(surface, field, chart_index, U)
    return cv.eta_all(cv.ColumnSystem.from_shape_data(batch.data)).values


def grid_blocks(grid):
    """(chart index, points) of every integration block of a grid."""
    for ci, cg in enumerate(grid.charts):
        for start in range(0, cg.size, BLOCK):
            yield ci, cg.span(start, start + BLOCK)[0]


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_chart_eta_bits_do_not_depend_on_the_slice(surfaces, skey, fkey, monkeypatch):
    """The eta kernel on sub-slices of a BLOCK-point batch (each chunk of
    SECOND_CHUNK points, a run across the chunk boundary, single points,
    short and long runs, a strided slice) gives the per-point bits of the
    whole block: every operation is per point on batch-last vectors.  Also
    for a coordinate field with no zero coefficient, whose J c sums every
    term.  The block reads its second partials in two chunks, which give L
    and the field form (d2F c)^T J the bits of one unchunked read."""
    surface = surfaces[skey]
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    U = grid.charts[0].span(BLOCK, 2 * BLOCK)[0]
    C = SECOND_CHUNK
    for field in (cv.get_field(fkey, surface),
                  coordinate_field(surface, np.linspace(0.3, 1.0, surface.dim))):
        whole = chart_eta(surface, field, 0, U)
        singles = [slice(i, i + 1) for i in range(0, BLOCK, 97)] + [slice(BLOCK - 1, BLOCK)]
        for part in singles + [slice(0, C), slice(C, BLOCK), slice(C - 500, C + 700),
                               slice(7, 20), slice(100, 1125), slice(2048, C),
                               slice(3, None, 7)]:
            got = chart_eta(surface, field, 0, U[part])
            np.testing.assert_array_equal(got.view(np.uint64),
                                          whole[part].view(np.uint64))

        assert SECOND_CHUNK < len(U)
        chunked = geometry_batch(surface, 0, U, coefficients=field.coefficients)
        with monkeypatch.context() as m:
            m.setattr(curvint.manifold, "SECOND_CHUNK", len(U))
            one_read = geometry_batch(surface, 0, U, coefficients=field.coefficients)
        for got, want in ((chunked.second_form, one_read.second_form),
                          (chunked.field_form, one_read.field_form)):
            assert np.moveaxis(got, 0, -1).flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("skey,fkey", [pair for pair in CATALOG_PAIRS if pair[0] != "torus2"])
def test_span_kernel_memory(surfaces, skey, fkey):
    """One block of the eta kernel peaks at most at 76 float64 per point
    (tracemalloc; measured 72.2, 82.2 for tube-t3, whose chart keeps more
    per point, so its bound is 86): the second partials, 36 per point for
    p = 3, are read in chunks and never held for the whole block, and the
    metric is formed after them."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    U = QuadratureGrid.build(surface, 48).charts[0].span(0, BLOCK)[0]
    chart_eta(surface, field, 0, U)  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        chart_eta(surface, field, 0, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * BLOCK) <= (86 if skey == "tube-t3" else 76)


@pytest.mark.parametrize("skey,fkey", [pair for pair in CATALOG_PAIRS if pair[0] != "torus2"])
def test_span_kernel_memory_over_a_workspace(surfaces, skey, fkey):
    """Over a warmed workspace, one block of the eta kernel allocates at most
    58 float64 per point (tracemalloc; measured 54.2, 64.2 for tube-t3,
    whose chart keeps more per point, so its bound is 68), on top of the
    18 per point (2 p^2) the workspace holds: its buffers take the second
    form and the field form K, which becomes D."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    U = QuadratureGrid.build(surface, 48).charts[0].span(0, BLOCK)[0]
    ws = curvint.manifold.Workspace(BLOCK)
    chart_eta(surface, field, 0, U, ws)  # warms the workspace
    held = sum(buf.nbytes for buf in ws._flat.values())
    tracemalloc.start()
    try:
        chart_eta(surface, field, 0, U, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = surface.dim
    assert held == 8 * 2 * p * p * BLOCK
    assert peak / (8 * BLOCK) <= (68 if skey == "tube-t3" else 58)


def _workspace_buffers():
    ws = curvint.quadrature._LOCAL.ws
    return {(name, buf.ctypes.data) for name, buf in ws._flat.items()}


def test_each_thread_reuses_its_workspace(surfaces, monkeypatch):
    """A pass leaves the calling thread its workspace, and the next passes
    run in the same buffers (same data pointers), full and half grid;
    another thread runs in buffers of its own."""
    monkeypatch.setattr(curvint.quadrature, "_LOCAL", threading.local())
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 24)
    cv.integrate_eta(surface, field, grid, workers=1)
    first = _workspace_buffers()
    assert {name for name, _ in first} == {"L", "K"}
    cv.verify_integral_formula(surface, field, grid, workers=1)
    cv.gauss_degree(surface, grid, workers=1)
    assert _workspace_buffers() == first

    def other_thread():
        cv.integrate_eta(surface, field, grid, workers=1)
        return _workspace_buffers()

    with ThreadPoolExecutor(1) as ex:
        other = ex.submit(other_thread).result(timeout=60)
    assert len(other) == 2 and not {p for _, p in other} & {p for _, p in first}


def test_user_threads_get_the_serial_bits_and_fork_nothing(surfaces, monkeypatch):
    """Two user threads that run integrate_eta at once, at 2 workers above
    the fork threshold, get the bits of a one-worker run and fork nothing:
    a child would inherit only the forking thread.  A short switch
    interval makes the threads interleave their blocks."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 48)
    assert grid.total_points > curvint.quadrature.FORK_POINTS
    want = repr(cv.integrate_eta(surface, field, grid, workers=1))

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    start = threading.Barrier(2)

    def run():
        start.wait(timeout=60)
        return repr(cv.integrate_eta(surface, field, grid, workers=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as ex:
            got = [f.result(timeout=60) for f in [ex.submit(run) for _ in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want, want]


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_chart_forms_match_frame_reference(surfaces, skey, fkey):
    """The frame-free eta agrees with the ambient adapted-frame route on every
    block of the 48^k grid (128^2 for torus2), within 1e-13 * max(1, |eta|)."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for ci, U in grid_blocks(grid):
        want = frame_eta(surface, field, ci, U)
        got = chart_eta(surface, field, ci, U)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_shape_data_matches_ambient_reference(surfaces, skey, fkey):
    """Frame components read off the chart forms agree with the ambient route
    on every block of the 48^k grid (128^2 for torus2): h, a, vvec and the
    <nabla v, v> residuals within 1e-13 * max(1, |x|), and the frame, the
    normal and the volume factor bit for bit."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for ci, U in grid_blocks(grid):
        got = shape_data_batch(surface, field, ci, U)
        want = ambient_shape_data(surface, field, ci, U)
        for x, y in ((got.data.h, want.data.h), (got.data.a, want.data.a),
                     (got.data.vvec, want.data.vvec),
                     (got.dv_e_dot_v, want.dv_e_dot_v),
                     (got.dv_v_dot_v, want.dv_v_dot_v)):
            assert np.all(np.abs(x - y) <= 1e-13 * np.maximum(1.0, np.abs(y)))
        for x, y in ((got.frame.e, want.frame.e), (got.frame.v, want.frame.v),
                     (got.frame.normal, want.frame.normal),
                     (got.volume_factor, want.volume_factor)):
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


def adjugate_field_form(surface, field, chart_index, U):
    """D through the adjugate metric inverse, as the chart forms once took it."""
    geo = geometry_batch(surface, chart_index, U, coefficients=field.coefficients)
    raw, _ = field_batch(field, surface, geo, chart_index, U, form=False)
    rawJ = field_jacobian(field, chart_index, U)
    rn, _, Pn = project_field_batch(raw, geo, U)
    tangents = np.swapaxes(geo.jacobian, -1, -2)
    K = np.swapaxes(tangents @ rawJ, -1, -2) + rn[:, None, None] * geo.second_form
    s = tangents @ raw[:, :, None]
    Kw = K @ (metric_inv(geo) @ s) / (Pn * Pn)[:, None, None]
    return (K - Kw * np.swapaxes(s, -1, -2)) / Pn[:, None, None]


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_chart_forms_solve_matches_adjugate_route(surfaces, skey, fkey):
    """D from the Cholesky solve agrees with the adjugate route on every
    block of the 48^k grid (128^2 for torus2), within 1e-13 * max(1, |D|)."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for ci, U in grid_blocks(grid):
        want = adjugate_field_form(surface, field, ci, U)
        _, got, _, _ = chart_forms_batch(surface, field, ci, U)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_chart_forms_exact_near_collapsed_hopf_circles(surfaces):
    """eta = (1, 0, 1) on the unit sphere also where a chart circle collapses."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        U = np.array([[t, 0.3, 1.1], [np.pi / 2 - t, 2.0, 4.0]])
        np.testing.assert_allclose(chart_eta(surface, field, 0, U),
                                   [[1.0, 0.0, 1.0]] * 2, rtol=0, atol=1e-14)


@pytest.mark.parametrize("skey,fkey", [*CATALOG_PAIRS, ("torus2-fd", "theta")])
def test_finite_difference_field_jacobian(surfaces, skey, fkey):
    """Dropping the analytic jacobian reproduces the field form, a, vvec and
    eta within 1e-6.

    torus2-fd also drops the chart's second partials.  The field form of
    the finite differences is compared with the chunked form that the
    geometry contracts from the analytic second partials.  a and vvec come
    from ``shape_data_batch``, eta from the frame-free chart forms; both
    are compared with the analytic ambient route.
    """
    surface = surfaces[skey.removesuffix("-fd")]
    field = cv.get_field(fkey, surface)
    fd_surface = without_second_partials(surface) if skey.endswith("-fd") else surface
    fd_field = cv.TangentField(ambient_value=field.ambient_value, key=field.key)
    U = domain_samples(surface, 10)
    geo = geometry_batch(surface, 0, U, coefficients=field.coefficients)
    fd_form = field_batch(fd_field, fd_surface, geo, 0, U)[1]
    assert np.max(np.abs(fd_form - geo.field_form)) < 1e-6
    exact = ambient_shape_data(surface, field, 0, U).data
    approx = shape_data_batch(fd_surface, fd_field, 0, U).data
    assert np.max(np.abs(exact.a - approx.a)) < 1e-6
    assert np.max(np.abs(exact.vvec - approx.vvec)) < 1e-6
    eta = frame_eta(surface, field, 0, U)
    assert np.max(np.abs(chart_eta(fd_surface, fd_field, 0, U) - eta)) < 1e-6


def _field_arrays(surface, field, ci, U):
    """Every array of a ShapeDataBatch, of the chart forms and both etas."""
    batch = shape_data_batch(surface, field, ci, U)
    d, f = batch.data, batch.frame
    eta = cv.eta_all(cv.ColumnSystem.from_shape_data(d)).values
    return [x.ravel() for x in (d.h, d.a, d.vvec, f.e, f.v, f.normal,
                                batch.h_asymmetry, batch.dv_e_dot_v,
                                batch.dv_v_dot_v, batch.volume_factor, eta,
                                *chart_forms_batch(surface, field, ci, U),
                                chart_eta(surface, field, ci, U))]


def test_field_bits_do_not_depend_on_value_layout(surfaces):
    """A field returning strided views gives the bits of one returning copies."""
    surface = surfaces["tube-t3"]

    def fiber(copy):
        def value(ci, U):
            x = surface.charts[ci].first_partials(U)[:, :, 1]
            return x.copy() if copy else x

        def jacobian(ci, U):
            x = surface.charts[ci].second_partials(U)[:, :, :, 1]
            return x.copy() if copy else x
        return cv.TangentField(value, jacobian, key="fiber")

    strided, contiguous = fiber(copy=False), fiber(copy=True)
    assert not strided.ambient_value(0, domain_samples(surface, 4)).flags.c_contiguous
    for ci, U in grid_blocks(QuadratureGrid.build(surface, 48)):
        got = _field_arrays(surface, strided, ci, U)
        want = _field_arrays(surface, contiguous, ci, U)
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_eta_invariant_under_frame_rotation(seed, n):
    """Rotating the e_i rotates h, a, vvec jointly and fixes every eta_k."""
    rng = np.random.default_rng(seed)
    p = n + 1
    h = rng.uniform(-1, 1, (p, p))
    h = 0.5 * (h + h.T)
    a = rng.uniform(-1, 1, (n, n))
    vvec = rng.uniform(-1, 1, n)
    sd = cv.ShapeData(h=h, a=a, vvec=vvec)

    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    Q = np.eye(p)
    Q[:n, :n] = R
    sd_rot = cv.ShapeData(h=Q @ h @ Q.T, a=R @ a @ R.T, vvec=R @ vvec)

    vals = cv.eta_all(cv.ColumnSystem.from_shape_data(sd)).values
    vals_rot = cv.eta_all(cv.ColumnSystem.from_shape_data(sd_rot)).values
    np.testing.assert_allclose(vals, vals_rot, atol=1e-8, rtol=1e-8)


def test_eta_frame_rotation_end_to_end(surfaces):
    """Same invariance exercised through the full pipeline on the sphere."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    u = np.array([0.6, 1.0, 2.5])
    sd = cv.shape_data(surface, field, 0, u)
    vals = cv.eta_all(cv.ColumnSystem.from_shape_data(sd)).values
    np.testing.assert_allclose(vals, [1.0, 0.0, 1.0], atol=1e-9)


def test_chi_nonzero_metadata_rejected():
    base = cv.get_surface("sphere3")
    surface = cv.ChartedHypersurface(
        n_intrinsic=base.n_intrinsic, charts=base.charts,
        metadata=cv.SurfaceMetadata(key="odd", euler_characteristic=2),
    )
    field = cv.TangentField(
        ambient_value=lambda ci, U: np.ones((len(U), 4)), key="const")
    with pytest.raises(ValueError):
        cv.shape_data(surface, field, 0, np.array([0.7, 1.0, 2.0]))


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_geometry_route_matches_catalog_callables(surfaces, skey, fkey):
    """A catalog field read off the block's geometry has the bits of its
    callables, on every block of the 48^k grid (128^2 for torus2): its
    values, and its field form (d2F c)^T J, contracted per chunk of second
    partials, against the user-field route that contracts the jacobian
    callable's whole block with J.  Both come back batch-last."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    user = dataclasses.replace(field, coefficients=None)
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for ci, U in grid_blocks(grid):
        geo = geometry_batch(surface, ci, U, coefficients=field.coefficients)
        raw, form = field_batch(field, surface, geo, ci, U)
        user_raw, user_form = field_batch(user, surface, geo, ci, U)
        for got, want in ((raw, field.ambient_value(ci, U)), (raw, user_raw),
                          (form, user_form)):
            assert np.moveaxis(got, 0, -1).flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _counting_field(field, calls):
    def counting(name, fn):
        def wrapper(ci, U):
            calls[name] += 1
            return fn(ci, U)
        return wrapper
    return dataclasses.replace(
        field, ambient_value=counting("value", field.ambient_value),
        ambient_jacobian=counting("jacobian", field.ambient_jacobian))


def test_replaced_coordinate_field_never_calls_its_callables(surfaces):
    """dataclasses.replace keeps the coefficients, so verify and the
    foliation report read the geometry and give the same reports."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    calls = {"value": 0, "jacobian": 0}
    wrapped = _counting_field(field, calls)
    grid = QuadratureGrid.build(surface, 12)
    for report in (cv.verify_integral_formula, cv.foliation_obstruction_report):
        assert repr(report(surface, wrapped, grid)) == repr(report(surface, field, grid))
    assert calls == {"value": 0, "jacobian": 0}


def test_user_field_calls_its_callables_once_per_span(surfaces):
    """Without coefficients the callables run once per block of a pool pass,
    and the same callables give the catalog field's integrals bit for bit."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    calls = {"value": 0, "jacobian": 0}
    user = _counting_field(dataclasses.replace(field, coefficients=None), calls)
    grid = QuadratureGrid.build(surface, 24)  # 2 blocks, and 1 for the 12^3 half
    got = cv.integrate_eta(surface, user, grid, workers=2)
    want = cv.integrate_eta(surface, field, grid, workers=2)
    assert calls == {"value": 3, "jacobian": 3}
    assert repr(got) == repr(want)


@pytest.mark.parametrize("c", [(1.0, 0.0), (0.0, 1.0, 1.0, 0.0), [[0.0, 1.0, 1.0]]])
def test_coordinate_field_needs_one_coefficient_per_coordinate(surfaces, c):
    with pytest.raises(ValueError, match="3 coefficients"):
        coordinate_field(surfaces["sphere3"], c)
