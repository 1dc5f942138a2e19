"""Field projection, adapted frames, and derivative components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvint as cv
from curvint.fields import _pivoted_frame, chart_forms_batch, shape_data_batch
from curvint.manifold import GeometryBatch, geometry_batch
from curvint.quadrature import BLOCK, QuadratureGrid
from conftest import CATALOG_PAIRS, domain_samples, without_second_partials

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
    """theta on torus2 is parallel to the first chart direction, which must
    be the discarded one; the remaining frame vector points along phi."""
    surface = surfaces["torus2"]
    field = cv.get_field("theta", surface)
    u = np.array([1.2, 0.4])
    v = cv.normalize_and_project(field, surface, 0, u)
    fr = cv.adapted_frame(surface, 0, u, v)
    geo = geometry_batch(surface, 0, u[None], second=False)
    f_phi = geo.jacobian[0][:, 1]
    cosang = abs(fr.e[0] @ f_phi) / np.linalg.norm(f_phi)
    assert abs(cosang - 1.0) < 1e-12


def test_pivoted_frame_rank_loss_names_the_point():
    """Tangents that lose rank once v is removed: the error gives u."""
    # point 0 is regular; at point 1 the tangents are e1, 2 e1, e2 and v = e2,
    # so only e1 survives the projection and the frame cannot be completed
    tangents = np.zeros((2, 3, 4))
    tangents[0, [0, 1, 2], [0, 1, 2]] = 1.0
    tangents[1, [0, 1, 2], [0, 0, 1]] = [1.0, 2.0, 1.0]
    v = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    J = np.swapaxes(tangents, 1, 2)
    geo = GeometryBatch(
        jacobian=J, tangents=tangents, metric=tangents @ J,
        metric_inv=np.full((2, 3, 3), np.nan),  # the metric is singular at point 1
        volume_factor=np.zeros(2), normal=np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)),
        second_form=None,
    )
    U = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    with pytest.raises(cv.DegenerateImmersion, match=r"at u=\[0\.4, 0\.5, 0\.6\]"):
        _pivoted_frame(geo, v, U)


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


def chart_eta(surface, field, chart_index, U):
    """eta_k as the integral passes compute them: chart forms, no frame."""
    h, dv, det_g, _ = chart_forms_batch(surface, field, chart_index, U)
    return cv.eta_all(cv.ColumnSystem(H=h, V=dv)).values / det_g[:, None]


def frame_eta(surface, field, chart_index, U):
    """eta_k of the reference route: adapted frame, then h, a and vvec."""
    batch = shape_data_batch(surface, field, chart_index, U)
    return cv.eta_all(cv.ColumnSystem.from_shape_data(batch.data)).values


def grid_blocks(grid):
    """(chart index, points) of every integration block of a grid."""
    for ci, cg in enumerate(grid.charts):
        for start in range(0, len(cg.points), BLOCK):
            yield ci, cg.points[start:start + BLOCK]


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_chart_forms_match_frame_reference(surfaces, skey, fkey):
    """The frame-free eta agrees with the adapted-frame route on every block
    of the 48^k grid (128^2 for torus2), within 1e-13 * max(1, |eta|)."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for ci, U in grid_blocks(grid):
        want = frame_eta(surface, field, ci, U)
        got = chart_eta(surface, field, ci, U)
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
    """Dropping the analytic jacobian reproduces a, vvec and eta within 1e-6.

    torus2-fd also drops the chart's second partials; eta comes from the
    frame-free chart forms and is compared with the analytic frame route.
    """
    surface = surfaces[skey.removesuffix("-fd")]
    field = cv.get_field(fkey, surface)
    fd_surface = without_second_partials(surface) if skey.endswith("-fd") else surface
    fd_field = cv.TangentField(ambient_value=field.ambient_value, key=field.key)
    U = domain_samples(surface, 10)
    exact = shape_data_batch(surface, field, 0, U).data
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
