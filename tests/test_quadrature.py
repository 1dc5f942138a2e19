"""Grid construction, volumes, refinement, and reduction determinism."""

import numpy as np
import pytest

import curvint as cv
from curvint.quadrature import QuadratureGrid


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
