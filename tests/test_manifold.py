"""Chart geometry: normals, metric, volume factors, shape operator."""

import numpy as np
import pytest

import curvint as cv
from curvint.manifold import _det, _inverse, generalized_cross, geometry_batch
from conftest import domain_samples, without_second_partials

N_SAMPLES = 100


def _orthonormal_chart_frame(surface, chart_index, u):
    """Gram-Schmidt of the chart tangent basis at a single point."""
    geo = geometry_batch(surface, chart_index, u[None], second=False)
    vecs = geo.jacobian[0].T.copy()
    for i in range(vecs.shape[0]):
        for j in range(i):
            vecs[i] -= vecs[i] @ vecs[j] * vecs[j]
        vecs[i] /= np.linalg.norm(vecs[i])
    return vecs


def test_generalized_cross_matches_np_cross_in_3d():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=(2, 3))
        got = generalized_cross(np.stack([a, b])[None])[0]
        np.testing.assert_allclose(got, np.cross(a, b), atol=1e-14)


def test_generalized_cross_defining_identity():
    # <X, y> = det[v_1 | ... | v_p | y] for arbitrary y, here in R^5
    rng = np.random.default_rng(8)
    vs = rng.normal(size=(4, 5))
    X = generalized_cross(vs[None])[0]
    for _ in range(5):
        y = rng.normal(size=5)
        det = np.linalg.det(np.column_stack([vs.T, y]))
        assert abs(X @ y - det) < 1e-12 * max(1.0, abs(det))


def _assert_det_inverse_match_lapack(M):
    det = _det(M)
    ref_det = np.linalg.det(M)
    assert np.max(np.abs(det - ref_det) / np.abs(ref_det)) < 1e-12
    inv = _inverse(M, det)
    ref_inv = np.linalg.inv(M)
    err = np.max(np.abs(inv - ref_inv), axis=(-2, -1))
    assert np.max(err / np.max(np.abs(ref_inv), axis=(-2, -1))) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_det_and_inverse_match_lapack(p):
    """Dense random matrices with singular values in [1, 10]."""
    rng = np.random.default_rng(10 + p)
    Q1 = np.linalg.qr(rng.normal(size=(200, p, p)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(200, p, p)))[0]
    s = rng.uniform(1.0, 10.0, size=(200, 1, p))
    _assert_det_inverse_match_lapack((Q1 * s) @ Q2)


def test_det_and_inverse_on_ill_conditioned_sphere3_metrics(surfaces):
    """Hopf-coordinate metrics next to the collapsing circles t = 0, pi/2."""
    gap = 10.0 ** -np.arange(2, 7)
    t = np.concatenate([gap, 0.5 * np.pi - gap])
    rng = np.random.default_rng(11)
    U = np.column_stack([t, rng.uniform(0, 2 * np.pi, (t.size, 2))])
    geo = geometry_batch(surfaces["sphere3"], 0, U, second=False)
    assert np.linalg.cond(geo.metric).max() > 1e11
    _assert_det_inverse_match_lapack(geo.metric)


@pytest.mark.parametrize("name", cv.surface_names())
def test_metric_inv_is_inverse(surfaces, name):
    surface = surfaces[name]
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    eye = np.eye(surface.dim)
    assert np.max(np.abs(geo.metric_inv @ geo.metric - eye)) < 1e-12


@pytest.mark.parametrize("name", cv.surface_names())
def test_normal_unit_tangent_oriented(surfaces, name):
    surface = surfaces[name]
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    norms = np.linalg.norm(geo.normal, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    dots = np.einsum("xq,xqa->xa", geo.normal, geo.jacobian)
    assert np.max(np.abs(dots)) < 1e-10
    # orientation coherence: det[F_1 | ... | F_{n+1} | N] > 0 everywhere
    M = np.concatenate([geo.jacobian, geo.normal[:, :, None]], axis=2)
    assert np.all(np.linalg.det(M) > 0)


@pytest.mark.parametrize("name", cv.surface_names())
def test_chart_differential_full_rank(surfaces, name):
    surface = surfaces[name]
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    sv = np.linalg.svd(geo.jacobian, compute_uv=False)
    assert np.all(sv[:, -1] > 1e-10 * sv[:, 0])


@pytest.mark.parametrize("name", cv.surface_names())
def test_metric_symmetric_positive_definite(surfaces, name):
    surface = surfaces[name]
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    assert np.max(np.abs(geo.metric - np.swapaxes(geo.metric, 1, 2))) < 1e-12
    assert np.all(np.linalg.eigvalsh(geo.metric) > 0)


@pytest.mark.parametrize("name", cv.surface_names())
def test_periodic_chart_closure(surfaces, name):
    surface = surfaces[name]
    chart = surface.charts[0]
    mid = chart.midpoint()
    for a, per in enumerate(chart.periodic):
        if not per:
            continue
        u_lo, u_hi = mid.copy(), mid.copy()
        u_lo[a] = chart.lo[a]
        u_hi[a] = chart.hi[a]
        p_lo = chart.position(u_lo[None])[0]
        p_hi = chart.position(u_hi[None])[0]
        assert np.max(np.abs(p_lo - p_hi)) < 1e-12


def test_sphere3_normal_is_position(surfaces):
    surface = surfaces["sphere3"]
    U = domain_samples(surface, N_SAMPLES)
    geo = geometry_batch(surface, 0, U, second=False)
    assert np.max(np.abs(geo.normal - surface.charts[0].position(U))) < 1e-12


def test_torus2_normal_outer_equator(surfaces):
    N = cv.unit_normal(surfaces["torus2"], 0, np.array([0.0, 0.0]))
    np.testing.assert_allclose(N, [1.0, 0.0, 0.0], atol=1e-14)


def test_sphere3_volume_factor_hopf(surfaces):
    pg = cv.point_geometry(surfaces["sphere3"], 0, np.array([np.pi / 4, 0.0, 0.0]))
    assert abs(pg.volume_factor - 0.5) < 1e-14
    # generic angle: sin * cos
    t = 0.9
    pg = cv.point_geometry(surfaces["sphere3"], 0, np.array([t, 1.0, 2.0]))
    assert abs(pg.volume_factor - np.sin(t) * np.cos(t)) < 1e-13


def test_torus2_volume_factor(surfaces):
    pg = cv.point_geometry(surfaces["torus2"], 0, np.array([0.0, 0.0]))
    assert abs(pg.volume_factor - 3.0) < 1e-13


def test_point_geometry_invariants(surfaces):
    pg = cv.point_geometry(surfaces["tube-t3"], 0, np.array([1.0, 2.0, 3.0]))
    assert abs(np.linalg.norm(pg.normal) - 1.0) < 1e-12
    assert np.max(np.abs(pg.tangent_basis @ pg.normal)) < 1e-10
    assert pg.volume_factor > 0


def test_shape_operator_unit_sphere_identity(surfaces):
    surface = surfaces["sphere3"]
    for u in domain_samples(surface, 5, seed=1):
        frame = _orthonormal_chart_frame(surface, 0, u)
        h = cv.shape_operator(surface, 0, u, frame)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-10)


def _scaled_surface(surface, rho):
    charts = tuple(
        cv.Chart(
            lo=c.lo, hi=c.hi, periodic=c.periodic,
            position=lambda U, c=c: rho * c.position(U),
            first_partials=lambda U, c=c: rho * c.first_partials(U),
            second_partials=lambda U, c=c: rho * c.second_partials(U),
        )
        for c in surface.charts
    )
    return cv.ChartedHypersurface(
        n_intrinsic=surface.n_intrinsic, charts=charts,
        orientation_sign=surface.orientation_sign,
    )


@pytest.mark.parametrize("name", ["sphere3", "torus2"])
def test_scaling_law(surfaces, name):
    """rho*F divides h by rho and multiplies the volume factor by rho^(n+1)."""
    rho = 2.0
    surface = surfaces[name]
    scaled = _scaled_surface(surface, rho)
    p = surface.dim
    for u in domain_samples(surface, 5, seed=2):
        pg = cv.point_geometry(surface, 0, u)
        pg2 = cv.point_geometry(scaled, 0, u)
        assert abs(pg2.volume_factor - rho ** p * pg.volume_factor) < 1e-10 * pg2.volume_factor
        frame = _orthonormal_chart_frame(surface, 0, u)
        frame2 = _orthonormal_chart_frame(scaled, 0, u)
        h = cv.shape_operator(surface, 0, u, frame)
        h2 = cv.shape_operator(scaled, 0, u, frame2)
        np.testing.assert_allclose(h2, h / rho, atol=1e-10)


def test_sphere_radius_curvature(surfaces):
    rho = 2.0
    scaled = _scaled_surface(surfaces["sphere3"], rho)
    u = np.array([0.8, 1.0, 2.0])
    frame = _orthonormal_chart_frame(scaled, 0, u)
    h = cv.shape_operator(scaled, 0, u, frame)
    np.testing.assert_allclose(h, np.eye(3) / rho, atol=1e-10)


def test_torus2_principal_curvatures(surfaces):
    surface = surfaces["torus2"]
    R, r = 2.0, 1.0
    for th, ph in [(0.0, 0.0), (1.0, 0.7), (2.5, 3.9)]:
        u = np.array([th, ph])
        frame = _orthonormal_chart_frame(surface, 0, u)
        h = cv.shape_operator(surface, 0, u, frame)
        expected = sorted([np.cos(ph) / (R + r * np.cos(ph)), 1.0 / r])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-10)
    u = np.array([0.0, 0.0])
    h = cv.shape_operator(surface, 0, u, _orthonormal_chart_frame(surface, 0, u))
    assert abs(np.linalg.det(h) - 1.0 / 3.0) < 1e-12


@pytest.mark.parametrize("name", cv.surface_names())
def test_shape_operator_against_second_partial_oracle(surfaces, name):
    """Independent route: h_AB = -<N, F_ab> contracted into the frame."""
    surface = surfaces[name]
    chart = surface.charts[0]
    for u in domain_samples(surface, 10, seed=3):
        frame = _orthonormal_chart_frame(surface, 0, u)
        h = cv.shape_operator(surface, 0, u, frame)

        geo = geometry_batch(surface, 0, u[None], second=True)
        K = -np.einsum("q,qab->ab", geo.normal[0], chart.second_partials(u[None])[0])
        coeff = np.linalg.solve(geo.metric[0], geo.jacobian[0].T @ frame.T)
        oracle = coeff.T @ K @ coeff
        np.testing.assert_allclose(h, 0.5 * (oracle + oracle.T), atol=1e-9)


@pytest.mark.parametrize("name", cv.surface_names())
def test_shape_operator_symmetry(surfaces, name):
    surface = surfaces[name]
    for u in domain_samples(surface, 20, seed=4):
        frame = _orthonormal_chart_frame(surface, 0, u)
        _, asym = cv.shape_operator(surface, 0, u, frame, return_asymmetry=True)
        assert asym < 1e-8


def test_frame_not_orthonormal_rejected(surfaces):
    surface = surfaces["sphere3"]
    u = np.array([0.7, 1.0, 2.0])
    geo = geometry_batch(surface, 0, u[None], second=False)
    raw_frame = geo.jacobian[0].T  # not normalized
    with pytest.raises(cv.FrameNotOrthonormal):
        cv.shape_operator(surface, 0, u, raw_frame)


def test_degenerate_immersion_raised():
    # a chart collapsing one direction: F(u1, u2) = circle(u1), rank 1
    def pos(U):
        return np.stack([np.cos(U[:, 0]), np.sin(U[:, 0]), 0 * U[:, 1]], axis=-1)

    def jac(U):
        J = np.zeros(U.shape[:1] + (3, 2))
        J[:, 0, 0] = -np.sin(U[:, 0])
        J[:, 1, 0] = np.cos(U[:, 0])
        return J

    chart = cv.Chart(lo=(0.0, 0.0), hi=(2 * np.pi, 1.0), periodic=(True, False),
                     position=pos, first_partials=jac)
    surface = cv.ChartedHypersurface(n_intrinsic=1, charts=(chart,))
    with pytest.raises(cv.DegenerateImmersion):
        cv.unit_normal(surface, 0, np.array([0.3, 0.5]))


def test_second_partials_symmetric_analytic(surfaces):
    for name in cv.surface_names():
        surface = surfaces[name]
        U = domain_samples(surface, 10)
        H2 = surface.charts[0].second_partials(U)
        assert np.max(np.abs(H2 - np.swapaxes(H2, 2, 3))) < 1e-8


@pytest.mark.parametrize("name", cv.surface_names())
def test_analytic_second_partials_match_finite_differences(surfaces, name):
    """Central differences cross-validate every catalog chart's hessian."""
    base = surfaces[name].charts[0]
    chart = cv.Chart(lo=base.lo, hi=base.hi, periodic=base.periodic,
                     position=base.position, first_partials=base.first_partials)
    U = domain_samples(surfaces[name], 10, seed=5)
    H2_fd = chart.second_partials(U)
    H2 = base.second_partials(U)
    assert np.max(np.abs(H2_fd - H2)) < 1e-8
    assert np.max(np.abs(H2_fd - np.swapaxes(H2_fd, 2, 3))) < 1e-8


def test_finite_difference_chart_shape_operator(surfaces):
    """A chart built without analytic second partials stays accurate."""
    fd_surface = without_second_partials(surfaces["torus2"])
    u = domain_samples(surfaces["torus2"], 1, seed=5)[0]
    frame = _orthonormal_chart_frame(fd_surface, 0, u)
    h_fd = cv.shape_operator(fd_surface, 0, u, frame)
    h = cv.shape_operator(surfaces["torus2"], 0, u, frame)
    np.testing.assert_allclose(h_fd, h, atol=1e-6)


@pytest.mark.parametrize("name", [*cv.surface_names(), "torus2-fd"])
def test_dnormal_matches_finite_difference_of_unit_normal(surfaces, name):
    """Independent route: differentiate unit_normal, which uses first partials only."""
    sample_surface = surfaces[name.removesuffix("-fd")]
    surface = (without_second_partials(sample_surface) if name.endswith("-fd")
               else sample_surface)
    chart = surface.charts[0]
    U = domain_samples(sample_surface, 20, seed=6)
    geo = geometry_batch(surface, 0, U, second=True)
    fd = cv.finite_difference_jacobian(
        lambda V: cv.unit_normal(surface, 0, V), chart.lo, chart.hi)(U)
    np.testing.assert_allclose(geo.dnormal, np.swapaxes(fd, -1, -2), atol=1e-8)
    along_normal = np.einsum("xaq,xq->xa", geo.dnormal, geo.normal)
    assert np.max(np.abs(along_normal)) < 1e-12


def test_surface_validation():
    with pytest.raises(ValueError):
        cv.ChartedHypersurface(n_intrinsic=0, charts=())
    # ambient dimension must be n+2: a curve in the plane has n=0
    def pos(U):
        return np.stack([np.cos(U[:, 0]), np.sin(U[:, 0])], axis=-1)

    def jac(U):
        return np.stack([-np.sin(U[:, 0]), np.cos(U[:, 0])], axis=-1)[:, :, None]

    chart = cv.Chart(lo=(0.0,), hi=(2 * np.pi,), periodic=(True,),
                     position=pos, first_partials=jac)
    with pytest.raises(ValueError):
        cv.ChartedHypersurface(n_intrinsic=1, charts=(chart,))
