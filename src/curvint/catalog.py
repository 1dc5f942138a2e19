"""Built-in surfaces and fields, addressed by string identifiers.

Every catalog surface has Euler characteristic zero, ships analytic first
and second partials, and uses a single chart whose domain is a product of
intervals (periodic where applicable).  Coordinate orders are chosen so
the computed normal points outward with orientation_sign = +1.  Chart
degeneracies (collapsing coordinate circles) sit on the domain boundary
and are avoided by the midpoint-shifted / interior-node grids.

Surfaces:
    torus2      T^2 in R^3, tube torus R=2, r=1           (n = 1)
    sphere3     unit S^3 in R^4, Hopf coordinates         (n = 2)
    ellipsoid3  diag(2,1,1,1) image of sphere3            (n = 2)
    tube-t3     T^3 in R^4, radius-0.3 tube around torus2 (n = 2)
    revs1s2     S^1 x S^2 of revolution in R^4, R=2, r=1  (n = 2)

Fields are constant-coefficient chart-coordinate fields sum_a c_a dF/du_a
(``fields.coordinate_field``), so their value is first_partials(U) @ c and
their jacobian is second_partials(U) @ c, which the grid passes read off
the block's geometry; each catalog entry lists the coefficients c:
    hopf    d/dx1 + d/dx2 in Hopf coordinates: the unit Killing field
            (-x2, x1, -x4, x3) on sphere3 and its pushforward on ellipsoid3
    theta   first-coordinate circle direction (torus2, revs1s2)
    fiber   tube-circle direction (tube-t3)
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import TangentField, coordinate_field
from .manifold import Chart, ChartedHypersurface, SurfaceMetadata

TWO_PI = 2.0 * np.pi

_TORUS_R, _TORUS_r = 2.0, 1.0
_TUBE_RHO = 0.3
_ELL_A = np.diag([2.0, 1.0, 1.0, 1.0])


def _torus2_chart() -> Chart:
    R, r = _TORUS_R, _TORUS_r

    def pos(U):
        th, ph = U[:, 0], U[:, 1]
        w = R + r * np.cos(ph)
        return np.stack([w * np.cos(th), w * np.sin(th), r * np.sin(ph)], axis=-1)

    def jac(U):
        th, ph = U[:, 0], U[:, 1]
        cth, sth = np.cos(th), np.sin(th)
        cph, sph = np.cos(ph), np.sin(ph)
        w = R + r * cph
        J = np.zeros(U.shape[:1] + (3, 2))
        J[:, 0, 0] = -w * sth
        J[:, 1, 0] = w * cth
        J[:, 0, 1] = -r * sph * cth
        J[:, 1, 1] = -r * sph * sth
        J[:, 2, 1] = r * cph
        return J

    def hess(U):
        th, ph = U[:, 0], U[:, 1]
        cth, sth = np.cos(th), np.sin(th)
        cph, sph = np.cos(ph), np.sin(ph)
        w = R + r * cph
        H = np.zeros(U.shape[:1] + (3, 2, 2))
        H[:, 0, 0, 0] = -w * cth
        H[:, 1, 0, 0] = -w * sth
        H[:, 0, 0, 1] = H[:, 0, 1, 0] = r * sph * sth
        H[:, 1, 0, 1] = H[:, 1, 1, 0] = -r * sph * cth
        H[:, 0, 1, 1] = -r * cph * cth
        H[:, 1, 1, 1] = -r * cph * sth
        H[:, 2, 1, 1] = -r * sph
        return H

    return Chart(lo=(0.0, 0.0), hi=(TWO_PI, TWO_PI), periodic=(True, True),
                 position=pos, first_partials=jac, second_partials=hess)


def _sphere3_chart() -> Chart:
    # Hopf coordinates (t, x1, x2); the t-circles collapse at t in {0, pi/2}.
    def pos(U):
        t, x1, x2 = U[:, 0], U[:, 1], U[:, 2]
        ct, st = np.cos(t), np.sin(t)
        return np.stack([ct * np.cos(x1), ct * np.sin(x1),
                         st * np.cos(x2), st * np.sin(x2)], axis=-1)

    def jac(U):
        t, x1, x2 = U[:, 0], U[:, 1], U[:, 2]
        ct, st = np.cos(t), np.sin(t)
        c1, s1 = np.cos(x1), np.sin(x1)
        c2, s2 = np.cos(x2), np.sin(x2)
        J = np.zeros(U.shape[:1] + (4, 3))
        J[:, 0, 0] = -st * c1
        J[:, 1, 0] = -st * s1
        J[:, 2, 0] = ct * c2
        J[:, 3, 0] = ct * s2
        J[:, 0, 1] = -ct * s1
        J[:, 1, 1] = ct * c1
        J[:, 2, 2] = -st * s2
        J[:, 3, 2] = st * c2
        return J

    def hess(U):
        t, x1, x2 = U[:, 0], U[:, 1], U[:, 2]
        ct, st = np.cos(t), np.sin(t)
        c1, s1 = np.cos(x1), np.sin(x1)
        c2, s2 = np.cos(x2), np.sin(x2)
        H = np.zeros(U.shape[:1] + (4, 3, 3))
        H[:, 0, 0, 0] = -ct * c1
        H[:, 1, 0, 0] = -ct * s1
        H[:, 2, 0, 0] = -st * c2
        H[:, 3, 0, 0] = -st * s2
        H[:, 0, 0, 1] = H[:, 0, 1, 0] = st * s1
        H[:, 1, 0, 1] = H[:, 1, 1, 0] = -st * c1
        H[:, 2, 0, 2] = H[:, 2, 2, 0] = -ct * s2
        H[:, 3, 0, 2] = H[:, 3, 2, 0] = ct * c2
        H[:, 0, 1, 1] = -ct * c1
        H[:, 1, 1, 1] = -ct * s1
        H[:, 2, 2, 2] = -st * c2
        H[:, 3, 2, 2] = -st * s2
        return H

    return Chart(lo=(0.0, 0.0, 0.0), hi=(0.5 * np.pi, TWO_PI, TWO_PI),
                 periodic=(False, True, True),
                 position=pos, first_partials=jac, second_partials=hess)


def _ellipsoid3_chart() -> Chart:
    base = _sphere3_chart()
    A = _ELL_A
    # A is diagonal: scaling the ambient rows gives the bits of A @ J and
    # A @ H at a fraction of a stacked matmul's cost
    a = np.diagonal(A)

    def pos(U):
        return base.position(U) @ A.T

    def jac(U):
        return a[:, None] * base.first_partials(U)

    def hess(U):
        return a[:, None, None] * base.second_partials(U)

    return Chart(lo=base.lo, hi=base.hi, periodic=base.periodic,
                 position=pos, first_partials=jac, second_partials=hess)


def _tube_t3_chart() -> Chart:
    # Coordinates (th, w, ph): th around the axis, w around the tube circle
    # in the normal plane of the base torus, ph around the base tube.  This
    # order makes the cross-product normal outward.
    R, r, rho = _TORUS_R, _TORUS_r, _TUBE_RHO

    def pos(U):
        th, w, ph = U[:, 0], U[:, 1], U[:, 2]
        s = r + rho * np.cos(w)
        m = R + s * np.cos(ph)
        return np.stack([m * np.cos(th), m * np.sin(th),
                         s * np.sin(ph), rho * np.sin(w)], axis=-1)

    def jac(U):
        th, w, ph = U[:, 0], U[:, 1], U[:, 2]
        cth, sth = np.cos(th), np.sin(th)
        cw, sw = np.cos(w), np.sin(w)
        cph, sph = np.cos(ph), np.sin(ph)
        s = r + rho * cw
        ds = -rho * sw
        m = R + s * cph
        J = np.zeros(U.shape[:1] + (4, 3))
        J[:, 0, 0] = -m * sth
        J[:, 1, 0] = m * cth
        J[:, 0, 1] = ds * cph * cth
        J[:, 1, 1] = ds * cph * sth
        J[:, 2, 1] = ds * sph
        J[:, 3, 1] = rho * cw
        J[:, 0, 2] = -s * sph * cth
        J[:, 1, 2] = -s * sph * sth
        J[:, 2, 2] = s * cph
        return J

    def hess(U):
        th, w, ph = U[:, 0], U[:, 1], U[:, 2]
        cth, sth = np.cos(th), np.sin(th)
        cw, sw = np.cos(w), np.sin(w)
        cph, sph = np.cos(ph), np.sin(ph)
        s = r + rho * cw
        ds = -rho * sw
        dds = -rho * cw
        m = R + s * cph
        H = np.zeros(U.shape[:1] + (4, 3, 3))
        # th-th
        H[:, 0, 0, 0] = -m * cth
        H[:, 1, 0, 0] = -m * sth
        # th-w
        H[:, 0, 0, 1] = H[:, 0, 1, 0] = -ds * cph * sth
        H[:, 1, 0, 1] = H[:, 1, 1, 0] = ds * cph * cth
        # th-ph
        H[:, 0, 0, 2] = H[:, 0, 2, 0] = s * sph * sth
        H[:, 1, 0, 2] = H[:, 1, 2, 0] = -s * sph * cth
        # w-w
        H[:, 0, 1, 1] = dds * cph * cth
        H[:, 1, 1, 1] = dds * cph * sth
        H[:, 2, 1, 1] = dds * sph
        H[:, 3, 1, 1] = -rho * sw
        # w-ph
        H[:, 0, 1, 2] = H[:, 0, 2, 1] = -ds * sph * cth
        H[:, 1, 1, 2] = H[:, 1, 2, 1] = -ds * sph * sth
        H[:, 2, 1, 2] = H[:, 2, 2, 1] = ds * cph
        # ph-ph
        H[:, 0, 2, 2] = -s * cph * cth
        H[:, 1, 2, 2] = -s * cph * sth
        H[:, 2, 2, 2] = -s * sph
        return H

    return Chart(lo=(0.0, 0.0, 0.0), hi=(TWO_PI, TWO_PI, TWO_PI),
                 periodic=(True, True, True),
                 position=pos, first_partials=jac, second_partials=hess)


def _revs1s2_chart() -> Chart:
    # Coordinates (th, b, al): a 2-sphere of radius r revolved along a
    # circle of radius R; al in (0, pi) is the polar angle (non-periodic,
    # collapsing at the ends), b the azimuthal one.  Order chosen for an
    # outward normal.
    R, r = _TORUS_R, _TORUS_r

    def pos(U):
        th, b, al = U[:, 0], U[:, 1], U[:, 2]
        m = R + r * np.cos(al)
        sa = np.sin(al)
        return np.stack([m * np.cos(th), m * np.sin(th),
                         r * sa * np.cos(b), r * sa * np.sin(b)], axis=-1)

    def jac(U):
        th, b, al = U[:, 0], U[:, 1], U[:, 2]
        cth, sth = np.cos(th), np.sin(th)
        cb, sb = np.cos(b), np.sin(b)
        ca, sa = np.cos(al), np.sin(al)
        m = R + r * ca
        J = np.zeros(U.shape[:1] + (4, 3))
        J[:, 0, 0] = -m * sth
        J[:, 1, 0] = m * cth
        J[:, 2, 1] = -r * sa * sb
        J[:, 3, 1] = r * sa * cb
        J[:, 0, 2] = -r * sa * cth
        J[:, 1, 2] = -r * sa * sth
        J[:, 2, 2] = r * ca * cb
        J[:, 3, 2] = r * ca * sb
        return J

    def hess(U):
        th, b, al = U[:, 0], U[:, 1], U[:, 2]
        cth, sth = np.cos(th), np.sin(th)
        cb, sb = np.cos(b), np.sin(b)
        ca, sa = np.cos(al), np.sin(al)
        m = R + r * ca
        H = np.zeros(U.shape[:1] + (4, 3, 3))
        # th-th
        H[:, 0, 0, 0] = -m * cth
        H[:, 1, 0, 0] = -m * sth
        # th-al
        H[:, 0, 0, 2] = H[:, 0, 2, 0] = r * sa * sth
        H[:, 1, 0, 2] = H[:, 1, 2, 0] = -r * sa * cth
        # b-b
        H[:, 2, 1, 1] = -r * sa * cb
        H[:, 3, 1, 1] = -r * sa * sb
        # b-al
        H[:, 2, 1, 2] = H[:, 2, 2, 1] = -r * ca * sb
        H[:, 3, 1, 2] = H[:, 3, 2, 1] = r * ca * cb
        # al-al
        H[:, 0, 2, 2] = -r * ca * cth
        H[:, 1, 2, 2] = -r * ca * sth
        H[:, 2, 2, 2] = -r * sa * cb
        H[:, 3, 2, 2] = -r * sa * sb
        return H

    return Chart(lo=(0.0, 0.0, 0.0), hi=(TWO_PI, TWO_PI, np.pi),
                 periodic=(True, True, False),
                 position=pos, first_partials=jac, second_partials=hess)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    name: str
    n: int
    betti: tuple[int, ...]
    chart: Callable[[], Chart]
    fields: dict[str, tuple[float, ...]]  # field name -> coordinate coefficients


_SURFACES: dict[str, CatalogEntry] = {e.key: e for e in (
    CatalogEntry("torus2", "tube torus in R^3 (R=2, r=1)", 1,
                 (1, 2, 1), _torus2_chart, {"theta": (1.0, 0.0)}),
    CatalogEntry("sphere3", "unit 3-sphere in R^4", 2,
                 (1, 0, 0, 1), _sphere3_chart, {"hopf": (0.0, 1.0, 1.0)}),
    CatalogEntry("ellipsoid3", "ellipsoid diag(2,1,1,1)*S^3 in R^4", 2,
                 (1, 0, 0, 1), _ellipsoid3_chart, {"hopf": (0.0, 1.0, 1.0)}),
    CatalogEntry("tube-t3", "3-torus tube boundary in R^4 (rho=0.3)", 2,
                 (1, 3, 3, 1), _tube_t3_chart, {"fiber": (0.0, 1.0, 0.0)}),
    CatalogEntry("revs1s2", "S^1 x S^2 of revolution in R^4 (R=2, r=1)", 2,
                 (1, 1, 1, 1), _revs1s2_chart, {"theta": (1.0, 0.0, 0.0)}),
)}


def surface_names() -> tuple[str, ...]:
    return tuple(sorted(_SURFACES))


def surface_entry(key: str) -> CatalogEntry:
    try:
        return _SURFACES[key]
    except KeyError:
        raise KeyError(f"unknown surface {key!r}; known: {', '.join(surface_names())}")


def get_surface(key: str) -> ChartedHypersurface:
    e = surface_entry(key)
    return ChartedHypersurface(
        n_intrinsic=e.n,
        charts=(e.chart(),),
        metadata=SurfaceMetadata(key=e.key, name=e.name, betti=e.betti,
                                 euler_characteristic=0),
    )


def field_names(surface_key: str) -> tuple[str, ...]:
    return tuple(surface_entry(surface_key).fields)


def get_field(key: str, surface: ChartedHypersurface) -> TangentField:
    """Catalog field by identifier, bound to a catalog surface."""
    skey = surface.metadata.key
    fields = surface_entry(skey).fields
    if key not in fields:
        raise KeyError(
            f"field {key!r} not available on surface {skey!r}; "
            f"known: {', '.join(fields)}"
        )
    return coordinate_field(surface, fields[key], key=key)
