"""Catalog charts against an independent symbolic reference.

Each surface's position is written here from its geometric description.
sympy differentiates it, and the chart's position, first partials and
second partials must match the lambdified formulas at sample points.
"""

import numpy as np
import pytest
import sympy as sp
from sympy import cos, sin

import curvint as cv
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
