"""Catalog charts against an independent symbolic reference.

Each surface's position is written here from its geometric description.
sympy differentiates it, and the chart's position, first partials and
second partials must match the lambdified formulas at sample points.
The partials must also keep the bits of a builder that writes them in C
order, while the catalog stores them batch-last.
"""

import numpy as np
import pytest
import sympy as sp
from sympy import cos, sin

import curvint as cv
from curvint import catalog
from curvint.manifold import Chart
from curvint.quadrature import BLOCK, QuadratureGrid
from conftest import domain_samples

u = sp.symbols("u0:3", real=True)


def _torus2():
    th, ph = u[:2]
    w = 2 + cos(ph)
    return [w * cos(th), w * sin(th), sin(ph)]


def _sphere3(a=1):
    t, x1, x2 = u
    return [a * cos(t) * cos(x1), cos(t) * sin(x1),
            sin(t) * cos(x2), sin(t) * sin(x2)]


def _tube_t3():
    th, w, ph = u
    rho = sp.Rational(3, 10)
    s = 1 + rho * cos(w)
    m = 2 + s * cos(ph)
    return [m * cos(th), m * sin(th), s * sin(ph), rho * sin(w)]


def _revs1s2():
    th, b, al = u
    m = 2 + cos(al)
    return [m * cos(th), m * sin(th), sin(al) * cos(b), sin(al) * sin(b)]


POSITIONS = {
    "torus2": _torus2,
    "sphere3": _sphere3,
    "ellipsoid3": lambda: _sphere3(a=2),
    "tube-t3": _tube_t3,
    "revs1s2": _revs1s2,
}


def _lambdified(exprs, us, U, shape):
    values = sp.lambdify(us, exprs, "numpy")(*U.T)
    flat = [np.broadcast_to(np.asarray(v, dtype=float), U.shape[:1]) for v in values]
    return np.stack(flat, axis=-1).reshape(U.shape[:1] + shape)


def test_every_catalog_surface_has_a_reference():
    assert sorted(POSITIONS) == sorted(cv.surface_names())


@pytest.mark.parametrize("name", sorted(POSITIONS))
def test_chart_matches_symbolic_derivatives(surfaces, name):
    surface = surfaces[name]
    chart = surface.charts[0]
    p, q = surface.dim, surface.ambient_dim
    us = u[:p]
    X = sp.Matrix(POSITIONS[name]())
    J = X.jacobian(us)
    H = [sp.hessian(x, us) for x in X]
    U = domain_samples(surface, 256)
    for got, exprs, shape in (
        (chart.position(U), list(X), (q,)),
        (chart.first_partials(U), list(J), (q, p)),
        (chart.second_partials(U), [h for Hx in H for h in Hx], (q, p, p)),
    ):
        want = _lambdified(exprs, us, U, shape)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def c_order_rotation_chart(lo, hi, periodic, angles, profile):
    """``catalog._rotation_chart`` writing (B, q, p) and (B, q, p, p) arrays
    in C order, entry by entry in the same products; position is unused."""
    p, k = len(lo), len(angles)
    others = [a for a in range(p) if a not in angles]
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i:]]

    def jet(U, order):
        gen = profile(U)
        levels = [next(gen) for _ in range(order + 1)]
        turns = [(np.cos(U[:, c]), np.sin(U[:, c])) for c in angles]
        return levels, turns, (len(U), k + len(levels[0]))

    def first_partials(U):
        (f, df), turns, shape = jet(U, 1)
        J = np.zeros(shape + (p,))
        for j, (c, (co, si)) in enumerate(zip(angles, turns)):
            J[:, 2 * j, c], J[:, 2 * j + 1, c] = -f[j] * si, f[j] * co
            for a, g in zip(others, df[j]):
                if g is not None:
                    J[:, 2 * j, a], J[:, 2 * j + 1, a] = g * co, g * si
        for i in range(k, len(f)):
            for a, g in zip(others, df[i]):
                if g is not None:
                    J[:, k + i, a] = g
        return J

    def second_partials(U):
        (f, df, ddf), turns, shape = jet(U, 2)
        H = np.zeros(shape + (p, p))
        for j, (c, (co, si)) in enumerate(zip(angles, turns)):
            x, y = 2 * j, 2 * j + 1
            H[:, x, c, c], H[:, y, c, c] = -f[j] * co, -f[j] * si
            for a, g in zip(others, df[j]):
                if g is not None:
                    H[:, x, a, c] = H[:, x, c, a] = -g * si
                    H[:, y, a, c] = H[:, y, c, a] = g * co
            for (a, b), g in zip(pairs, ddf[j]):
                if g is not None:
                    H[:, x, a, b] = H[:, x, b, a] = g * co
                    H[:, y, a, b] = H[:, y, b, a] = g * si
        for i in range(k, len(f)):
            for (a, b), g in zip(pairs, ddf[i]):
                if g is not None:
                    H[:, k + i, a, b] = H[:, k + i, b, a] = g
        return H

    return Chart(lo=lo, hi=hi, periodic=periodic, position=lambda U: None,
                 first_partials=first_partials, second_partials=second_partials)


@pytest.mark.parametrize("name", sorted(POSITIONS))
def test_partials_match_c_order_reference_bits(surfaces, monkeypatch, name):
    """Batch-last partials have the bits of the C-order builder on a 48^k
    grid block (128^2 for torus2) and at sample points, and are views of
    C-contiguous batch-last storage."""
    surface = surfaces[name]
    chart = surface.charts[0]
    monkeypatch.setattr(catalog, "_rotation_chart", c_order_rotation_chart)
    reference = catalog.surface_entry(name).chart()
    grid = QuadratureGrid.build(surface, 128 if surface.dim == 2 else 48)
    for U in (grid.charts[0].points[BLOCK:2 * BLOCK], domain_samples(surface, 256)):
        for got, want in ((chart.first_partials(U), reference.first_partials(U)),
                          (chart.second_partials(U), reference.second_partials(U))):
            assert want.flags.c_contiguous and np.moveaxis(got, 0, -1).flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
