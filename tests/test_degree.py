"""Degree extraction, formula verification, Milnor bounds, foliation."""

import dataclasses

import numpy as np
import pytest

import curvint as cv
import curvint.fields
import curvint.manifold
import curvint.quadrature
from curvint.quadrature import QuadratureGrid
from conftest import CATALOG_PAIRS


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
    """The eta passes take chart-basis forms; only the foliation needs a frame."""
    original = curvint.fields._pivoted_frame
    framed = []

    def counting(geo, v, U):
        framed.append(len(U))
        return original(geo, v, U)

    monkeypatch.setattr(curvint.fields, "_pivoted_frame", counting)
    surface = surfaces["sphere3"]
    field = cv.get_field("hopf", surface)
    grid = QuadratureGrid.build(surface, 8)
    cv.verify_integral_formula(surface, field, grid)
    assert framed == []
    cv.foliation_obstruction_report(surface, field, grid)
    assert sum(framed) == 8**3


def test_verify_reads_chart_partials_not_position(surfaces):
    """Geometry and field each read J and d2F once per point; nothing reads F."""
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
        "position": 0, "first_partials": 2 * points, "second_partials": 2 * points}


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
    # det h over the samples against the frame-free shape determinant
    assert abs(rep.degree.raw - cv.gauss_degree(surface, grid).raw) <= 1e-14
    assert rep.consistent


@pytest.mark.parametrize("skey,fkey", CATALOG_PAIRS)
def test_foliation_implication_never_violated(surfaces, skey, fkey):
    surface = surfaces[skey]
    field = cv.get_field(fkey, surface)
    rep = cv.foliation_obstruction_report(surface, field,
                                          QuadratureGrid.build(surface, 10))
    assert rep.consistent
