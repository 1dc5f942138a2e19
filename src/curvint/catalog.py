"""Built-in surfaces and fields, addressed by string identifiers.

Every catalog surface has Euler characteristic zero, ships analytic first
and second partials, and uses a single chart whose domain is a product of
intervals (periodic where applicable).  Coordinate orders are chosen so
the computed normal points outward with orientation_sign = +1.  Chart
degeneracies (collapsing coordinate circles) sit on the domain boundary
and are avoided by the midpoint-shifted / interior-node grids.

Each surface but ellipsoid3 is a profile whose coordinate pairs turn with
angle coordinates (``_rotation_chart``).  Surfaces, with coordinates,
angles and profile:
    torus2      T^2 in R^3, tube torus R=2, r=1           (n = 1)
                (th, ph); th turns R + r cos ph; r sin ph stays
    sphere3     unit S^3 in R^4, Hopf coordinates         (n = 2)
                (t, x1, x2); x1 turns cos t, x2 turns sin t
    ellipsoid3  diag(2,1,1,1) image of sphere3            (n = 2)
    tube-t3     T^3 in R^4, radius-0.3 tube around torus2 (n = 2)
                (th, w, ph); th turns R + s cos ph with s = r + rho cos w;
                s sin ph and rho sin w stay
    revs1s2     S^1 x S^2 of revolution in R^4, R=2, r=1  (n = 2)
                (th, b, al); th turns R + r cos al, b turns r sin al

Fields are constant-coefficient chart-coordinate fields sum_a c_a dF/du_a
(``fields.coordinate_field``), so their value is first_partials(U) @ c and
their jacobian is second_partials(U) @ c, which the grid passes read off
the block's geometry; each catalog entry lists the coefficients c:
    hopf    d/dx1 + d/dx2 in Hopf coordinates: the unit Killing field
            (-x2, x1, -x4, x3) on sphere3 and its pushforward on ellipsoid3
    theta   first-coordinate circle direction (torus2, revs1s2)
    fiber   tube-circle direction (tube-t3)
"""

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import TangentField, coordinate_field
from .manifold import Chart, ChartedHypersurface, SurfaceMetadata

TWO_PI = 2.0 * np.pi

_TORUS_R, _TORUS_r = 2.0, 1.0
_TUBE_RHO = 0.3
_ELL_A = np.diag([2.0, 1.0, 1.0, 1.0])


def _rows(x, rows):
    """The rows ``rows`` of every array in nested lists and tuples of them."""
    if isinstance(x, (list, tuple)):
        return [_rows(y, rows) for y in x]
    return x if x is None else x[rows]


def _rotation_chart(lo, hi, periodic, angles, profile) -> Chart:
    """Chart of a profile point whose coordinate pairs turn with angles.

    Chart coordinate ``angles[j]`` turns ambient pair (2j, 2j+1): it holds
    ``A_j * (cos x, sin x)`` with ``x = u[angles[j]]``, and the entries that
    no angle moves fill the ambient rows after the pairs.  The generator
    ``profile(U)`` yields the profile point, a list of the amplitudes A_j
    followed by the unmoved entries; then its first partials, per entry a
    list over the other chart coordinates (those not in ``angles``, in
    chart order); then its second partials, per entry a list over the pairs
    a <= b of those coordinates in row-major order.  ``None`` marks an
    identically zero partial: it is never written, so a structural zero
    stays +0.0.  A call draws only the levels it needs, and every
    derivative in an angle is written here, once.  Arrays are written
    batch-last, (q, B), (q, p, B) and (q, p, p, B), one contiguous row per
    entry, and returned as their (B, ...) views (``manifold``'s layout).

    The profile and the angle cosines and sines are evaluated once per
    point: each thread keeps them for the last points it was asked for,
    so the second partials after the first partials at equal points draw
    only the last level.  The second partials may also be read in
    consecutive runs of those points, as ``geometry_batch`` reads them:
    each run is served from the kept rows that follow the last run read.
    Reading the last row of the last level drops them.
    """
    p, k = len(lo), len(angles)
    others = [a for a in range(p) if a not in angles]
    pairs = [(a, b) for i, a in enumerate(others) for b in others[i:]]
    kept = threading.local()

    def jet(U, order):
        # kept.jet = [points, profile generator, levels, turns, first row
        # not yet read at order 2]
        last = getattr(kept, "jet", None)
        if last is not None:
            rows = slice(last[4], last[4] + len(U))
            if not np.array_equal(last[0][rows], U):
                last = None
        if last is None:
            turns = [(np.cos(U[:, c]), np.sin(U[:, c])) for c in angles]
            last = kept.jet = [U.copy(), profile(U), [], turns, 0]
            rows = slice(0, len(U))
        _, gen, levels, turns, _ = last
        while len(levels) <= order:
            levels.append(next(gen))
        if order == 2:
            last[4] = rows.stop
            if rows.stop == len(last[0]):
                kept.jet = None
        if len(U) < len(last[0]):
            levels, turns = _rows(levels, rows), _rows(turns, rows)
        return levels[:order + 1], turns, (k + len(levels[0]), len(U))

    def position(U):
        (f,), turns, (q, B) = jet(U, 0)
        P = np.empty((q, B))
        for j, (co, si) in enumerate(turns):
            P[2 * j], P[2 * j + 1] = f[j] * co, f[j] * si
        for i in range(k, len(f)):
            P[k + i] = f[i]
        return P.T

    # Products go straight into their slots (out=), saving a temporary and a
    # copy each; a mixed second partial is then copied to its mirror slot.
    def first_partials(U):
        (f, df), turns, (q, B) = jet(U, 1)
        J = np.zeros((q, p, B))
        for j, (c, (co, si)) in enumerate(zip(angles, turns)):
            x, y = J[2 * j], J[2 * j + 1]
            np.multiply(-f[j], si, out=x[c])
            np.multiply(f[j], co, out=y[c])
            for a, g in zip(others, df[j]):
                if g is not None:
                    np.multiply(g, co, out=x[a])
                    np.multiply(g, si, out=y[a])
        for i in range(k, len(f)):
            for a, g in zip(others, df[i]):
                if g is not None:
                    J[k + i, a] = g
        return J.transpose(2, 0, 1)

    def second_partials(U):
        (f, df, ddf), turns, (q, B) = jet(U, 2)
        H = np.zeros((q, p, p, B))
        for j, (c, (co, si)) in enumerate(zip(angles, turns)):
            x, y = H[2 * j], H[2 * j + 1]
            nf = -f[j]
            np.multiply(nf, co, out=x[c, c])
            np.multiply(nf, si, out=y[c, c])
            for a, g in zip(others, df[j]):
                if g is not None:
                    x[a, c] = np.multiply(-g, si, out=x[c, a])
                    y[a, c] = np.multiply(g, co, out=y[c, a])
            for (a, b), g in zip(pairs, ddf[j]):
                if g is not None:
                    np.multiply(g, co, out=x[a, b])
                    np.multiply(g, si, out=y[a, b])
                    if a != b:
                        x[b, a], y[b, a] = x[a, b], y[a, b]
        for i in range(k, len(f)):
            for (a, b), g in zip(pairs, ddf[i]):
                if g is not None:
                    H[k + i, a, b] = g
                    if a != b:
                        H[k + i, b, a] = g
        return H.transpose(3, 0, 1, 2)

    return Chart(lo=lo, hi=hi, periodic=periodic, position=position,
                 first_partials=first_partials, second_partials=second_partials)


def _circle(col, R, r):
    """Profile (R + r cos u, r sin u) of chart coordinate ``col``."""
    def profile(U):
        rc, rs = r * np.cos(U[:, col]), r * np.sin(U[:, col])
        yield [R + rc, rs]
        yield [[-rs], [rc]]
        yield [[-rc], [-rs]]
    return profile


def _torus2_chart() -> Chart:
    return _rotation_chart((0.0, 0.0), (TWO_PI, TWO_PI), (True, True), (0,),
                           _circle(1, _TORUS_R, _TORUS_r))


def _sphere3_chart() -> Chart:
    # Hopf coordinates (t, x1, x2): the amplitudes are the unit circle
    # (cos t, sin t), whose x-circles collapse at t in {0, pi/2}.
    return _rotation_chart((0.0, 0.0, 0.0), (0.5 * np.pi, TWO_PI, TWO_PI),
                           (False, True, True), (1, 2), _circle(0, 0.0, 1.0))


def _ellipsoid3_chart() -> Chart:
    base = _sphere3_chart()
    # _ELL_A is diagonal: scaling the ambient rows gives the bits of A @ J and
    # A @ H at a fraction of a stacked matmul's cost, in the base's layout,
    # and in place in the base's fresh arrays
    a = np.diagonal(_ELL_A)

    def pos(U):
        return base.position(U) @ _ELL_A.T

    def jac(U):
        J = base.first_partials(U)
        J *= a[:, None]
        return J

    def hess(U):
        H = base.second_partials(U)
        H *= a[:, None, None]
        return H

    return Chart(lo=base.lo, hi=base.hi, periodic=base.periodic,
                 position=pos, first_partials=jac, second_partials=hess)


def _tube_t3_chart() -> Chart:
    # w runs around the tube circle in the normal plane of the base torus,
    # ph around the base tube.
    R, r, rho = _TORUS_R, _TORUS_r, _TUBE_RHO

    def profile(U):
        rcw, rsw = rho * np.cos(U[:, 1]), rho * np.sin(U[:, 1])
        cph, sph = np.cos(U[:, 2]), np.sin(U[:, 2])
        s = r + rcw
        scph, ssph = s * cph, s * sph
        yield [R + scph, ssph, rsw]
        ds = -rsw
        dscph, dssph = ds * cph, ds * sph
        yield [[dscph, -ssph], [dssph, scph], [rcw, None]]
        dds = -rcw
        yield [[dds * cph, -dssph, -scph],
               [dds * sph, dscph, -ssph],
               [ds, None, None]]

    return _rotation_chart((0.0, 0.0, 0.0), (TWO_PI, TWO_PI, TWO_PI),
                           (True, True, True), (0,), profile)


def _revs1s2_chart() -> Chart:
    # A 2-sphere of radius r revolved along a circle of radius R; al in
    # (0, pi) is its polar angle, whose circles collapse at the ends.
    return _rotation_chart((0.0, 0.0, 0.0), (TWO_PI, TWO_PI, np.pi),
                           (True, True, False), (0, 1),
                           _circle(2, _TORUS_R, _TORUS_r))


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


# key -> the one surface that get_surface returns for it, built and probed
# once per process: surfaces are frozen
_BUILT: dict[str, ChartedHypersurface] = {}


def _surface(key: str) -> ChartedHypersurface:
    """The surface of ``key`` in ``_BUILT``, built on first use.  Worker
    processes rebuild a pass's surface here, not through ``get_surface``,
    which callers may replace."""
    surface = _BUILT.get(key)
    if surface is None:
        e = surface_entry(key)
        surface = _BUILT.setdefault(key, ChartedHypersurface(
            n_intrinsic=e.n,
            charts=(e.chart(),),
            metadata=SurfaceMetadata(key=e.key, name=e.name, betti=e.betti,
                                     euler_characteristic=0),
        ))
    return surface


def _key_of(surface: ChartedHypersurface) -> str | None:
    """The key of ``surface`` if it is the very object ``get_surface``
    returned, else None: a copy or a user surface has none, whatever its
    metadata says."""
    return next((key for key, s in list(_BUILT.items()) if s is surface), None)


def get_surface(key: str) -> ChartedHypersurface:
    return _surface(key)


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
