"""Degree extraction, formula verification, Milnor bounds, foliation."""

import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import curvint as cv
import curvint.fields
import curvint.manifold
import curvint.quadrature
from curvint.degree import _defect, _rank, _singular_values
from curvint.fields import _chart_forms, _reduced_a, shape_data_batch
from curvint.manifold import Workspace, _batch_last, _cholesky
from curvint.quadrature import BLOCK, QuadratureGrid
from conftest import CATALOG_PAIRS, ambient_shape_data


def test_sphere_volume_values():
    assert cv.sphere_volume(1) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert cv.sphere_volume(2) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert cv.sphere_volume(3) == pytest.approx(2.0 * np.pi**2, rel=1e-15)
    with pytest.raises(cv.IndexOutOfRange):
        cv.sphere_volume(0)


EXPECTED_DEGREE = {
    "sphere3": 1,
    "ellipsoid3": 1,
    "torus2": 0,
    "tube-t3": 0,
    "revs1s2": 0,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_DEGREE))
def test_gauss_degree_catalog(surfaces, name):
    surface = surfaces[name]
    deg = cv.gauss_degree(surface, QuadratureGrid.build(surface, 32))
    assert deg.rounded == EXPECTED_DEGREE[name]
    assert deg.residual < 1e-5
    assert deg.valid


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_gauss_degree_is_verify_degree(surfaces, skey, fkey):
    """The det h integrand is verify's eta_0: the two degrees agree bit for bit."""
    surface = surfaces[skey]
    for nodes in (12, 16):
        grid = QuadratureGrid.build(surface, nodes)
        want = cv.verify_integral_formula(surface, cv.get_field(fkey, surface), grid)
        assert cv.gauss_degree(surface, grid).raw == want.degree.raw


def test_degree_integrality_two_resolutions(surfaces):
    for name in ("tube-t3", "revs1s2"):
        surface = surfaces[name]
        d1 = cv.gauss_degree(surface, QuadratureGrid.build(surface, 16))
        d2 = cv.gauss_degree(surface, QuadratureGrid.build(surface, 32))
        assert d1.rounded == d2.rounded == 0


def test_non_integer_degree_raised(surfaces):
    """A chart covering half the sphere integrates to half the degree."""
    base = cv.get_surface("sphere3").charts[0]
    half = cv.Chart(lo=base.lo, hi=(0.5 * np.pi, np.pi, 2 * np.pi),
                    periodic=(False, False, True),
                    position=base.position, first_partials=base.first_partials,
                    second_partials=base.second_partials)
    surface = cv.ChartedHypersurface(n_intrinsic=2, charts=(half,))
    with pytest.raises(cv.NonIntegerDegree):
        cv.gauss_degree(surface, QuadratureGrid.build(surface, 16))


def _nan_torus(surfaces, which):
    """torus2 whose first or second partials are NaN for 3.0 < u0 < 3.1."""
    chart = surfaces["torus2"].charts[0]

    def poisoned(fn):
        def partials(U):
            out = np.array(fn(U), dtype=float)
            out[(U[:, 0] > 3.0) & (U[:, 0] < 3.1)] = np.nan
            return out
        return partials

    bad = {which: poisoned(getattr(chart, which))}
    return dataclasses.replace(surfaces["torus2"],
                               charts=(dataclasses.replace(chart, **bad),))


def test_nan_first_partials_name_chart_and_point(surfaces):
    surface = _nan_torus(surfaces, "first_partials")
    grid = QuadratureGrid.build(surface, 32)
    field = cv.get_field("theta", surface)
    point = r"^chart 0: .* at u=\[3\.0\d*, [^]]+\]$"
    with pytest.raises(cv.DegenerateImmersion, match=point):
        cv.gauss_degree(surface, grid)
    with pytest.raises(cv.DegenerateImmersion, match=point):
        cv.verify_integral_formula(surface, field, grid)


def test_nan_second_partials_give_non_integer_degree(surfaces):
    surface = _nan_torus(surfaces, "second_partials")
    grid = QuadratureGrid.build(surface, 32)
    field = cv.get_field("theta", surface)
    point = r"^chart 0: second partials not finite at u=\[3\.0\d*, [^]]+\]$"
    with pytest.raises(cv.DegenerateImmersion, match=point):
        cv.gauss_degree(surface, grid)
    with pytest.raises(cv.DegenerateImmersion, match=point):
        cv.verify_integral_formula(surface, field, grid)


def test_nan_field_value_names_chart_and_point(surfaces):
    surface = surfaces["torus2"]
    theta = cv.get_field("theta", surface)

    def value(ci, U):
        out = np.array(theta.ambient_value(ci, U))
        out[(U[:, 0] > 3.0) & (U[:, 0] < 3.1)] = np.nan
        return out

    field = cv.TangentField(ambient_value=value, ambient_jacobian=theta.ambient_jacobian)
    with pytest.raises(cv.VanishingField, match=r"^chart 0: .* at u=\[3\.0\d*, [^]]+\]$"):
        cv.verify_integral_formula(surface, field, QuadratureGrid.build(surface, 32))


def test_nan_field_jacobian_names_chart_and_point(surfaces):
    """A NaN field derivative stops both passes at the point, as a NaN value does."""
    surface = surfaces["sphere3"]
    hopf = cv.get_field("hopf", surface)

    def jacobian(ci, U):
        out = np.array(hopf.ambient_jacobian(ci, U))
        out[(U[:, 1] > 3.0) & (U[:, 1] < 3.5)] = np.nan
        return out

    field = cv.TangentField(ambient_value=hopf.ambient_value, ambient_jacobian=jacobian)
    grid = QuadratureGrid.build(surface, 12)
    point = r"^chart 0: field derivative not finite at u=\[[^,]+, 3\.40\d*, [^]]+\]$"
    with pytest.raises(cv.VanishingField, match=point):
        cv.verify_integral_formula(surface, field, grid)
    with pytest.raises(cv.VanishingField, match=point):
        cv.foliation_obstruction_report(surface, field, grid)


def _reference_singular_values(a):
    """Singular values of (B, n, n) float matrices, n <= 2, in 50 digits.

    For 2 x 2, sigma_1 +- sigma_2 = sqrt(|a|_F^2 +- 2 |det a|): no hypot,
    so this checks the closed form's algebra as well as its rounding.
    """
    with mp.workdps(50):
        out = []
        for m in a.tolist():
            if len(m) == 1:
                out.append([abs(mp.mpf(m[0][0]))])
                continue
            (p, q), (r, s) = [[mp.mpf(x) for x in row] for row in m]
            t, d = p * p + q * q + r * r + s * s, abs(p * s - q * r)
            x, y = mp.sqrt(t + 2 * d), mp.sqrt(t - 2 * d)
            out.append([(x + y) / 2, (x - y) / 2])
        return np.array(out, dtype=float)


@pytest.mark.parametrize("n", [1, 2])
def test_singular_values_closed_form_match_reference(n):
    """Within 2 eps * sigma_max of a 50-digit reference, on random, zero,
    rank-one, antisymmetric and diagonal inputs."""
    rng = np.random.default_rng(40 + n)
    dense = rng.normal(size=(500, n, n)) * 10.0 ** rng.uniform(-6, 6, size=(500, 1, 1))
    x, y = rng.normal(size=(2, 500, n, 1))
    antisymmetric = dense - np.swapaxes(dense, -1, -2)
    diagonal = np.einsum("xi,ij->xij", rng.normal(size=(500, n)), np.eye(n))
    for a in (dense, np.zeros((3, n, n)), x @ np.swapaxes(y, -1, -2),
              antisymmetric, diagonal):
        got, want = _singular_values(a), _reference_singular_values(a)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * want[:, :1])


def test_singular_values_are_lapacks_for_n3():
    a = np.random.default_rng(43).normal(size=(200, 3, 3))
    got, want = _singular_values(a), np.linalg.svd(a, compute_uv=False)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def reduced_a(surface, field, ci, U):
    geo, _, _, D, w = _chart_forms(surface, field, ci, U)
    return _reduced_a(geo.metric_chol, D, w)


@pytest.mark.parametrize("skey,fkey,nodes", [
    *[(s, f, 12) for s, f in CATALOG_PAIRS], ("ellipsoid3", "hopf", 48)])
def test_reduced_a_matches_frame_route(surfaces, skey, fkey, nodes):
    """The foliation's a is ``shape_data_batch``'s bit for bit, and within
    1e-13 * max(1, |a|) of the ambient route, an independent D, at every
    point of the 12^k grids and of the 48^3 ellipsoid row at the first
    node t = 0.0028, next to a collapsing Hopf circle."""
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    for ci, cg in enumerate(QuadratureGrid.build(surface, nodes).charts):
        U = cg.points if nodes == 12 else cg.points[cg.points[:, 0] == cg.points[0, 0]]
        got = reduced_a(surface, field, ci, U)
        frame = shape_data_batch(surface, field, ci, U).data.a
        np.testing.assert_array_equal(got.view(np.uint64), frame.view(np.uint64))
        want = ambient_shape_data(surface, field, ci, U).data.a
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_a_is_the_form_on_an_orthonormal_complement(n):
    """Random chart data: a has the singular values and the defect of D
    restricted to an explicit QR basis of v^perp."""
    rng = np.random.default_rng(70 + n)
    p, B = n + 1, 200
    J = rng.normal(size=(B, p + 1, p))  # chart partials
    g = np.einsum("xqa,xqb->xab", J, J)
    w = rng.normal(size=(B, p))
    w /= np.sqrt(np.einsum("xa,xab,xb->x", w, g, w))[:, None]  # v = J w is unit
    omega = np.einsum("xab,xb->xa", g, w)
    D = rng.normal(size=(B, p, p))
    D -= np.einsum("xab,xb->xa", D, w)[:, :, None] * omega[:, None, :]  # D w = 0
    # v first, then n chart tangents: the last n columns of Q span v^perp
    Q = np.linalg.qr(np.concatenate([J @ w[:, :, None], J[:, :, :n]], axis=2))[0]
    E = np.linalg.solve(g, np.swapaxes(J, 1, 2) @ Q[:, :, 1:])  # their chart coordinates
    want = np.swapaxes(E, 1, 2) @ D @ E
    C = _cholesky(np.moveaxis(g, 0, -1).copy(), np.zeros((B, p)))
    got = _reduced_a(C, _batch_last(D), _batch_last(w))
    assert got.shape == (B, n, n)
    sv = _singular_values(want)
    np.testing.assert_allclose(_singular_values(got), sv, rtol=0, atol=1e-12 * sv.max())
    np.testing.assert_allclose(_defect(got), _defect(want), rtol=0, atol=1e-12 * sv.max())


@pytest.mark.parametrize("skey,fkey", [("torus2", "theta"), ("sphere3", "hopf")])
def test_no_metric_inverse_and_no_svd_in_grid_passes(surfaces, monkeypatch, skey, fkey):
    """For n <= 2 no grid pass forms a metric inverse or calls LAPACK's SVD.

    The adjugate inverse lives in the tests (``conftest.adjugate_inverse``),
    so the library has none to form; LAPACK's inverse is counted instead.
    """
    assert not hasattr(curvint.manifold, "_inverse")
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    grid = QuadratureGrid.build(surface, 12)
    cv.verify_integral_formula(surface, field, grid)
    cv.integrate_eta(surface, field, grid)
    cv.gauss_degree(surface, grid)
    cv.foliation_obstruction_report(surface, field, grid)
    assert calls == []
    np.linalg.inv(np.eye(2))
    assert calls == ["inv"]  # the wrapper sees a call when one is made


@pytest.fixture
def geometry_points(monkeypatch):
    """Count geometry_batch points under every name a caller looks it up by."""
    original = curvint.manifold.geometry_batch
    counted = []

    def counting(surface, chart_index, U, *args, **kwargs):
        counted.append(len(U))
        return original(surface, chart_index, U, *args, **kwargs)

    for module in (curvint.fields, curvint.quadrature, curvint.manifold):
        monkeypatch.setattr(module, "geometry_batch", counting)
    return counted


def test_one_geometry_evaluation_per_point(surfaces, geometry_points):
    surface = surfaces["sphere3"]
    grid = QuadratureGrid.build(surface, 8)
    cv.verify_integral_formula(surface, cv.get_field("hopf", surface), grid)
    assert sum(geometry_points) == 8**3 + 4**3  # full grid plus half grid
    geometry_points.clear()
    cv.gauss_degree(surface, grid)
    assert sum(geometry_points) == 8**3
    geometry_points.clear()
    surface = surfaces["revs1s2"]  # the hypothesis holds: the degree is checked
    rep = cv.foliation_obstruction_report(surface, cv.get_field("theta", surface),
                                          QuadratureGrid.build(surface, 12))
    assert rep.degree is not None
    assert sum(geometry_points) == 12**3


def test_verify_builds_no_adapted_frame(surfaces, monkeypatch):
    """The eta passes take chart-basis forms and the foliation pass reads a
    off them too: neither builds the frame vectors."""
    original = curvint.fields._frame_vectors
    framed = []

    def counting(geo, w):
        framed.append(len(w))
        return original(geo, w)

    monkeypatch.setattr(curvint.fields, "_frame_vectors", counting)
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 8)
    cv.verify_integral_formula(surface, field, grid)
    assert framed == []
    cv.foliation_obstruction_report(surface, field, grid)
    assert framed == []
    cv.shape_data(surface, field, 0, grid.charts[0].points[0])
    assert framed == [1]  # the pointwise API still builds one


def test_verify_reads_chart_partials_not_position(surfaces):
    """The chart's J and d2F are evaluated once per point; nothing reads F.

    The catalog field reads J @ c and d2F @ c off the block's geometry.
    """
    base = surfaces["sphere3"]
    counted = {"position": [], "first_partials": [], "second_partials": []}

    def counting(name, fn):
        def wrapper(U):
            counted[name].append(len(U))
            return fn(U)
        return wrapper

    chart = base.charts[0]
    surface = dataclasses.replace(base, charts=(dataclasses.replace(
        chart, **{name: counting(name, getattr(chart, name)) for name in counted}),))
    for calls in counted.values():
        calls.clear()  # building the surface probes the chart
    cv.verify_integral_formula(surface, cv.get_field("hopf", surface),
                               QuadratureGrid.build(surface, 8))
    points = 8**3 + 4**3  # full grid plus half grid
    assert {name: sum(calls) for name, calls in counted.items()} == {
        "position": 0, "first_partials": points, "second_partials": points}


def test_predicted_integral_table():
    vol3 = cv.sphere_volume(3)
    assert cv.predicted_integral(2, 0, 1) == pytest.approx(vol3)
    assert cv.predicted_integral(2, 2, 1) == pytest.approx(vol3)
    assert cv.predicted_integral(2, 1, 1) == 0.0
    assert cv.predicted_integral(1, 0, 5) == 0.0  # odd n: everything vanishes
    assert cv.predicted_integral(4, 2, 3) == pytest.approx(3 * 2 * cv.sphere_volume(5))


def test_verify_sphere3(surfaces):
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    rep = cv.verify_integral_formula(surface, field,
                                     QuadratureGrid.build(surface, 24))
    assert rep.degree.rounded == 1
    assert rep.all_passed and rep.all_resolved
    target = 2.0 * np.pi**2
    by_k = {r.k: r for r in rep.rows}
    assert abs(by_k[0].integral - target) < 1e-6 * target
    assert by_k[1].predicted == 0.0 and by_k[1].rel_dev is None
    assert abs(by_k[2].integral - target) < 1e-6 * target


def test_verify_torus2_odd_dimension(surfaces):
    surface = surfaces["torus2"]
    field = cv.get_field("theta", surface)
    rep = cv.verify_integral_formula(surface, field,
                                     QuadratureGrid.build(surface, 48))
    assert rep.degree.rounded == 0
    assert all(r.predicted == 0.0 for r in rep.rows)
    assert rep.all_passed


def test_verify_tight_tolerance_fails_resolution(surfaces):
    """Very tight tolerances on a coarse grid flag under-resolution."""
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    rep = cv.verify_integral_formula(
        surface, field, QuadratureGrid.build(surface, 8),
        rel_tol=1e-12, abs_tol=1e-13)
    assert not (rep.all_passed and rep.all_resolved)


def test_milnor_sphere3():
    rep = cv.milnor_constraints(cv.MilnorInput(d=1, betti=(1, 0, 0, 1)))
    assert rep.beta_sum == 2
    assert rep.parity_ok and rep.bound_ok and rep.oriented_bound_ok
    assert rep.all_ok


def test_milnor_failing_case():
    rep = cv.milnor_constraints(cv.MilnorInput(d=3, betti=(1, 0, 0, 1)))
    assert rep.parity_ok
    assert not rep.bound_ok
    assert not rep.all_ok


def test_milnor_t3():
    rep = cv.milnor_constraints(cv.MilnorInput(d=0, betti=(1, 3, 3, 1)))
    assert rep.beta_sum == 8
    assert rep.all_ok


def test_milnor_unoriented_skips_two_sided_bound():
    rep = cv.milnor_constraints(cv.MilnorInput(d=-2, betti=(1, 2, 1),
                                               oriented=False))
    assert rep.oriented_bound_ok is None
    assert rep.bound_ok
    # oriented case violates the lower bound 2 - beta/2 = 0 <= d
    rep2 = cv.milnor_constraints(cv.MilnorInput(d=-2, betti=(1, 2, 1)))
    assert rep2.oriented_bound_ok is False


def test_milnor_rejects_negative_betti():
    with pytest.raises(ValueError):
        cv.MilnorInput(d=0, betti=(1, -1, 1))


def test_foliation_sphere3_hopf(surfaces):
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    rep = cv.foliation_obstruction_report(surface, field,
                                          QuadratureGrid.build(surface, 12))
    assert abs(rep.max_defect - 2.0) < 1e-6
    assert not rep.integrable
    assert not rep.hypothesis
    assert rep.consistent


def test_foliation_tube_fiber(surfaces):
    surface = surfaces["tube-t3"]
    field = cv.get_field("fiber", surface)
    rep = cv.foliation_obstruction_report(surface, field,
                                          QuadratureGrid.build(surface, 12))
    assert rep.max_defect < 1e-8
    assert rep.integrable
    assert rep.max_rank == 2
    assert rep.rank_threshold == 0
    assert not rep.hypothesis  # rank 2 > n-2 = 0: no conclusion drawn


def test_foliation_revs1s2_totally_geodesic(surfaces):
    """a == 0 everywhere: hypothesis holds and the degree check passes."""
    surface = surfaces["revs1s2"]
    field = cv.get_field("theta", surface)
    grid = QuadratureGrid.build(surface, 12)
    rep = cv.foliation_obstruction_report(surface, field, grid)
    assert rep.max_defect < 1e-12
    assert rep.max_rank == 0
    assert rep.hypothesis
    assert rep.degree_zero_concluded
    assert rep.degree is not None and rep.degree.rounded == 0
    # det h over the samples is the shape determinant, bit for bit
    assert rep.degree.raw == cv.gauss_degree(surface, grid).raw
    assert rep.consistent


class _Captured(Exception):
    pass


def _block_kernel(monkeypatch, report, *args):
    """The block kernel ``func(ci, U, ws)`` that ``report`` hands to its grid pass."""
    kernels = []

    def capture(surface, func, grid, workers):
        kernels.append(func)
        raise _Captured

    monkeypatch.setattr(curvint.degree, "_integrate_vector", capture)
    with pytest.raises(_Captured):
        report(*args)
    return kernels[0]


# pass, workspace buffers, bound (and tube-t3's) in float64 per point
_BLOCK_MEMORY = [("foliation", {"L", "K"}, 62, 68), ("degree", {"L"}, 54, 64)]


@pytest.mark.parametrize("skey,fkey", [pair for pair in CATALOG_PAIRS if pair[0] != "torus2"])
@pytest.mark.parametrize("kind,buffers,bound,tube_bound", _BLOCK_MEMORY)
def test_block_memory(surfaces, monkeypatch, skey, fkey, kind, buffers, bound, tube_bound):
    """Over a warmed workspace, one BLOCK-point block of the foliation pass
    allocates at most 62 float64 per point and one of the degree pass at
    most 54 (tracemalloc; measured 58.1 and 50.2, and 64.2 and 60.2 for
    tube-t3, whose chart keeps more per point, so its bounds are 68 and
    64), on top of the p^2 per point that each workspace buffer holds: the
    second form, and for the foliation the field form K, which becomes D.
    At 48^3 both passes hold more than FORK_POINTS points, so every forked
    process pays for this working set."""
    surface = surfaces[skey]
    grid = QuadratureGrid.build(surface, 48)
    assert grid.total_points > curvint.quadrature.FORK_POINTS
    if kind == "foliation":
        field = cv.get_field(fkey, surface)
        func = _block_kernel(monkeypatch, cv.foliation_obstruction_report, surface, field, grid)
    else:
        func = _block_kernel(monkeypatch, cv.gauss_degree, surface, grid)
    U = grid.charts[0].span(0, BLOCK)[0]
    ws = Workspace(BLOCK)
    func(0, U, ws)  # warms the workspace
    tracemalloc.start()
    try:
        func(0, U, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(ws._flat) == buffers
    p = surface.dim
    assert sum(buf.nbytes for buf in ws._flat.values()) == 8 * len(buffers) * p * p * BLOCK
    assert peak / (8 * BLOCK) <= (tube_bound if skey == "tube-t3" else bound)


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_foliation_implication_never_violated(surfaces, skey, fkey):
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    rep = cv.foliation_obstruction_report(surface, field,
                                          QuadratureGrid.build(surface, 10))
    assert rep.consistent
