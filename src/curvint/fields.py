"""Unit tangent fields, adapted frames, and their derivative components.

A field is specified ambiently: a raw vector at each chart point, which is
projected onto the tangent space and normalized.  One kernel forms the
second fundamental form h and the derivative D of the unit field v, as
the p x p chart-basis forms that ``chart_forms_batch`` returns.  The
integral passes use these forms directly, since their determinants over
det g are the orthonormal-frame ones.  Components in the adapted
orthonormal frame {e_1, ..., e_n, v} (v always last) come from one
kernel, ``_adapted_components``: two triangular solves with the block's
Cholesky factor of the metric and one Householder reflection that takes
v to the last axis.  The foliation pass reads a off it (``_reduced_a``),
and the pointwise API (``shape_data_batch``, ``adapted_frame``) reads h,
a, vvec and the frame vectors off the same reflection.  No metric
inverse and no Gram-Schmidt is formed.  Tests check the components
against a test-local route that assembles the derivatives in the ambient
space.
Every pass evaluates a field through ``field_batch``, which reads a
coordinate field off the block's chart partials.

Layout: field values, their derivatives and the chart forms keep their
(B, ...) shapes but are stored batch-last, like the block geometry
(``manifold``): each matrix entry is one contiguous (B,) vector, and each
contraction is one ``einsum`` whose output keeps that layout.  The sums
``<raw, N>``, ``|P|``, ``K w`` and a coordinate field's ``J c`` and
``d2F c`` are taken in entry order instead: for a block of one point
einsum would sum that lone contiguous axis in another order, and a point
is to get the same bits alone as in a block.  A field that returns
another layout is copied once, so the forms' bits depend only on the
values a field returns.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import manifold
from ._finitediff import partial_stack
from .errors import FrameNotOrthonormal, VanishingField
from .manifold import ChartedHypersurface, GeometryBatch, geometry_batch

_VANISHING_TOL = 1e-10

finite_difference_jacobian = partial_stack


@dataclass(frozen=True)
class TangentField:
    """Ambiently specified vector field on a hypersurface.

    ``ambient_value(chart_index, U)`` returns raw vectors (B, q); an
    optional ``ambient_jacobian(chart_index, U)`` returns their parameter
    derivatives (B, q, p).  Without the jacobian, central finite
    differences with one Richardson level are used.  Raw values may be
    mildly non-tangent (up to ~1e-6); projection enforces exact tangency.

    ``coefficients`` marks a chart-coordinate field ``sum_a c_a dF/du_a``
    (build one with ``coordinate_field``): the passes then read ``J @ c``
    and ``d2F @ c`` off the block's geometry and never call the two
    callables, which must describe the same field.
    """

    ambient_value: Callable[[int, np.ndarray], np.ndarray]
    ambient_jacobian: Callable[[int, np.ndarray], np.ndarray] | None = None
    key: str = ""
    coefficients: tuple[float, ...] | None = None


def coordinate_field(surface: ChartedHypersurface, c, key: str = "") -> TangentField:
    """The field sum_a c_a dF/du_a for constant chart-coordinate coefficients c.

    Its value is ``first_partials(U) @ c`` and its jacobian
    ``second_partials(U) @ c``.  Raises ValueError unless c holds one
    coefficient per chart coordinate.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (surface.dim,):
        raise ValueError(
            f"coordinate field needs {surface.dim} coefficients, got shape {c.shape}")
    charts = surface.charts

    def value(ci, U):
        return manifold._dot_last(manifold._batch_last(charts[ci].first_partials(U)), c)

    def jacobian(ci, U):
        return manifold._dot_last(manifold._batch_last(charts[ci].second_partials(U)), c)

    return TangentField(ambient_value=value, ambient_jacobian=jacobian, key=key,
                        coefficients=tuple(c.tolist()))


def field_batch(
    field: TangentField,
    surface: ChartedHypersurface,
    geo: GeometryBatch,
    chart_index: int,
    U: np.ndarray,
    form: bool = True,
    ws: manifold.Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Raw field values (B, q) and the field form ``(d raw)^T J`` (B, p, p).

    The one place a pass evaluates a field.  A coordinate field is read off
    the block's chart partials (its form is the ``field_form`` of geometry
    evaluated with ``second=True`` and the field's coefficients, else
    ValueError); any other field calls ``ambient_value`` and
    ``ambient_jacobian`` once each, or takes finite differences of the value
    when it has no jacobian, and contracts the derivatives with J into the
    workspace's buffer ``K`` when ``ws`` is given.  Values and derivatives
    are batch-last (a field's own arrays are copied once when they are
    not): einsum's summation order, and so the bits, follow the strides.
    The form is None when ``form`` is False.
    """
    if field.coefficients is not None:
        if form and geo.field_form is None:
            raise ValueError("a coordinate field's derivative needs the geometry "
                             "evaluated with second=True and its coefficients")
        raw = manifold._dot_last(geo.jacobian, np.asarray(field.coefficients, dtype=float))
        return raw, geo.field_form if form else None
    raw = manifold._batch_last(field.ambient_value(chart_index, U))
    if not form:
        return raw, None
    if field.ambient_jacobian is not None:
        rawJ = field.ambient_jacobian(chart_index, U)
    else:
        chart = surface.charts[chart_index]
        rawJ = partial_stack(lambda V: np.asarray(field.ambient_value(chart_index, V)),
                             chart.lo, chart.hi)(U)
    B, q, p = geo.jacobian.shape
    return raw, np.einsum("xqa,xqb->xab", manifold._batch_last(rawJ), geo.jacobian,
                          out=manifold._empty(ws, "K", B, p, p))


@dataclass(frozen=True)
class AdaptedFramePoint:
    """Orthonormal tangent frame with the unit field last."""

    e: np.ndarray       # (n, q)
    v: np.ndarray       # (q,)
    normal: np.ndarray  # (q,)


@dataclass(frozen=True)
class ShapeData:
    """Frame components of the surface and field derivatives.

    ``h`` is the second fundamental form in the adapted frame, indices
    ordered (e_1, ..., e_n, v) so row/column n+1 carries the v-components.
    ``a[i, j] = <nabla_{e_i} v, e_j>`` and ``vvec[i] = <nabla_v v, e_i>``.
    Arrays may carry leading batch axes.
    """

    h: np.ndarray     # (..., p, p)
    a: np.ndarray     # (..., n, n)
    vvec: np.ndarray  # (..., n)


class FrameBatch(NamedTuple):
    e: np.ndarray       # (B, n, q)
    v: np.ndarray       # (B, q)
    normal: np.ndarray  # (B, q)


class ShapeDataBatch(NamedTuple):
    data: ShapeData
    frame: FrameBatch
    h_asymmetry: np.ndarray      # (B,)
    dv_e_dot_v: np.ndarray       # (B, n)  <D_{e_i} v, v>
    dv_v_dot_v: np.ndarray       # (B,)    <D_v v, v>
    volume_factor: np.ndarray    # (B,)    chart volume factor


def _check_field_allowed(surface: ChartedHypersurface):
    chi = surface.metadata.euler_characteristic
    if chi is not None and chi != 0:
        raise ValueError(
            "global unit tangent fields require Euler characteristic 0, "
            f"surface metadata declares {chi}"
        )


def _tangential_norm(
    raw: np.ndarray, geo: GeometryBatch, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normal component ``rn`` of raw field values and the norm of their
    tangential part ``raw - rn N``, which is formed one entry at a time,
    in entry order (module docstring), and not kept."""
    N = geo.normal
    rn = np.sum(raw * N, axis=-1)
    sq = None
    for i in range(N.shape[1]):
        d = raw[:, i] - rn * N[:, i]
        d *= d
        sq = d if sq is None else np.add(sq, d, out=sq)
    Pn = np.sqrt(sq, out=sq)
    ok = Pn >= _VANISHING_TOL  # a NaN value counts as vanishing
    if not ok.all():
        pt = np.asarray(U)[int(np.argmin(ok))]
        raise VanishingField(f"tangential part of field vanishes at u={pt.tolist()}")
    return rn, Pn


def project_field_batch(
    raw: np.ndarray, geo: GeometryBatch, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal component, tangential part and its norm of raw field values."""
    rn, Pn = _tangential_norm(raw, geo, U)
    return rn, raw - rn[:, None] * geo.normal, Pn


def normalize_and_project(
    field: TangentField, surface: ChartedHypersurface, chart_index: int, u
) -> np.ndarray:
    """Unit tangent value of the field at a chart point."""
    _check_field_allowed(surface)
    U, single = manifold._as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    raw, _ = field_batch(field, surface, geo, chart_index, U, form=False)
    _, P, Pn = project_field_batch(raw, geo, U)
    v = P / Pn[:, None]
    return v[0] if single else v


def _chart_forms(
    surface: ChartedHypersurface,
    field: TangentField,
    chart_index: int,
    U: np.ndarray,
    ws: manifold.Workspace | None = None,
) -> tuple[GeometryBatch, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Geometry, raw field values, the norm |P| of their tangential part,
    the form D, and w.

    The one place the field derivative is computed (h is
    ``-geo.second_form``); see ``chart_forms_batch`` for the forms,
    ``_reduced_a`` and ``shape_data_batch`` for their orthonormal
    components.  P itself is not formed.  ``w = g^-1 s / |P|`` (B, p),
    batch-last, are the chart coordinates of v.  With a workspace ``ws``
    the geometry's forms and D are its buffers (``manifold.geometry_batch``).
    """
    _check_field_allowed(surface)
    U = np.asarray(U, dtype=float)
    geo = geometry_batch(surface, chart_index, U, coefficients=field.coefficients, ws=ws)
    raw, K = field_batch(field, surface, geo, chart_index, U, ws=ws)  # K = (d raw)^T J
    rn, Pn = _tangential_norm(raw, geo, U)
    geo = geo._replace(field_form=None)  # K is D's array
    L = geo.second_form
    p = L.shape[1]
    for a in range(p):  # row by row: each temporary is (B, p)
        K[:, a] += rn[:, None] * L[:, a]
    s = np.einsum("xqa,xq->xa", geo.jacobian, raw)  # J^T raw
    cP = manifold._cholesky_solve(geo.metric_chol, s.T).T  # g^-1 s: chart coordinates of P
    Kw = manifold._dot_last(K, cP.T[:, :, None])  # K g^-1 s, entry order
    Kw /= (Pn * Pn)[:, None]  # K w / |P|
    D = K  # formed in K's array, which has no other use
    for a in range(p):
        D[:, a] -= Kw[:, a, None] * s
    D /= Pn[:, None, None]
    if not np.isfinite(D).all():  # a NaN field jacobian; per point only to name it
        pt = U[int(np.argmin(np.isfinite(D).all(axis=(-2, -1))))]
        raise VanishingField(f"field derivative not finite at u={pt.tolist()}")
    return geo, raw, Pn, D, cP / Pn[:, None]


def _reflection(C: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u (p, B) and beta (B,) of the reflection H = I - beta u u^T that maps
    ``y = C^T w`` to -+|y| e_p.

    C is the (p, p, B) metric factor and w (B, p) the chart coordinates of
    v, so y are v's coordinates in the orthonormal basis ``J C^-T``.  The
    shift in u is +|y| unless y_p < -|y| / 2, so |u_p| >= |y| / 2 and
    nothing cancels (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    5.1); where v is a chart direction, y_p is rounding noise, and its
    sign does not choose between two reflected bases.
    """
    n = C.shape[0] - 1
    u = np.sum(C * w.T[:, None], axis=0)  # y = C^T w
    ny = np.sqrt(np.sum(u * u, axis=0))
    u[n] += np.where(u[n] < -0.5 * ny, -ny, ny)
    return u, 1.0 / (ny * np.abs(u[n]))  # beta = 2 / |u|^2


def _adapted_components(C: np.ndarray, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The chart-basis form X in the adapted frame {e_1, ..., e_n, v}, (B, p, p).

    The frame has chart coordinates ``C^-T H S``: the first n columns of H
    (``_reflection``) span v^perp (``_frame_vectors``), and the sign S
    makes the last one +w / |C^T w|, that is v.  ``M = C^-1 X C^-T`` takes
    two forward substitutions, and ``S H M H S`` two rank-one updates.
    Returned batch-last.
    """
    n = C.shape[0] - 1
    u, beta = _reflection(C, w)
    M = manifold._lower_solve(C, np.array(X.transpose(1, 2, 0)))  # C^-1 X
    manifold._lower_solve(C, M.transpose(1, 0, 2))  # C^-1 X C^-T, in M
    M -= (beta * u)[:, None] * np.sum(u[:, None] * M, axis=0)  # H M
    M -= (beta * np.sum(M * u, axis=1))[:, None] * u  # H M H
    flip = np.where(u[n] < 0.0, 1.0, -1.0)  # H e_p = -+y / |y|
    M[n] *= flip
    M[:, n] *= flip
    return M.transpose(2, 0, 1)


def _frame_vectors(geo: GeometryBatch, w: np.ndarray) -> np.ndarray:
    """e_1, ..., e_n of the adapted frame, (B, n, q): ``J C^-T H[:, :n]``,
    with H = ``_reflection(C, w)`` and one back substitution."""
    C = geo.metric_chol
    n = C.shape[0] - 1
    u, beta = _reflection(C, w)
    Hn = np.eye(n + 1, n)[:, :, None] - (beta * u)[:, None] * u[:n]  # H[:, :n]
    return np.einsum("xqa,aix->xiq", geo.jacobian, manifold._upper_solve(C, Hn))


def adapted_frame(
    surface: ChartedHypersurface, chart_index: int, u, v: np.ndarray
) -> AdaptedFramePoint:
    """Adapted orthonormal frame {e_1, ..., e_n, v} at a chart point.

    The e_i are ``_frame_vectors`` of v's chart coordinates ``g^-1 J^T v``.
    ``FrameNotOrthonormal`` when ``| |v| - 1 |`` or ``|<v, N>|`` exceeds
    1e-10, as in ``manifold.shape_operator``.
    """
    U, _ = manifold._as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    vb = np.asarray(v, dtype=float)[None, :]
    tol = manifold._FRAME_ORTHO_TOL
    if not (abs(np.sqrt(np.sum(vb * vb)) - 1.0) <= tol
            and abs(np.sum(vb * geo.normal)) <= tol):  # NaN fails too
        raise FrameNotOrthonormal(
            f"v is not a unit tangent vector within {tol:g} at u={U[0].tolist()}")
    w = manifold._cholesky_solve(geo.metric_chol, np.einsum("xqa,xq->ax", geo.jacobian, vb))
    e = _frame_vectors(geo, w.T)
    return AdaptedFramePoint(e=e[0], v=vb[0], normal=geo.normal[0])


def _reduced_a(C: np.ndarray, D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a = <nabla_{e_i} v, e_j> in the adapted frame, (B, n, n), batch-last.

    The leading n x n block of ``_adapted_components`` for the chart form
    D, w and the metric factor C of ``_chart_forms``: ``shape_data_batch``'s
    a bit for bit.
    """
    n = C.shape[0] - 1
    return _adapted_components(C, w, D)[:, :n, :n]


def shape_data_batch(
    surface: ChartedHypersurface,
    field: TangentField,
    chart_index: int,
    U: np.ndarray,
) -> ShapeDataBatch:
    """Adapted frame plus h, a, vvec at a batch of chart points.

    Every component is read off the chart forms of ``chart_forms_batch``
    by ``_adapted_components``: ``h`` is the symmetrized form of ``-L``,
    and the form of D holds ``<D_{E_A} v, E_B>``, whose blocks are a, vvec
    and the two ``<nabla v, v>`` residuals.  The frame vectors e_i are
    ``_frame_vectors``, from the same reflection.
    """
    geo, raw, Pn, D, w = _chart_forms(surface, field, chart_index, U)
    P = project_field_batch(raw, geo, U)[1]
    n = surface.n_intrinsic
    C = geo.metric_chol
    h, h_asym = manifold._symmetrized(_adapted_components(C, w, -geo.second_form))
    dv_frame = _adapted_components(C, w, D)  # <D_{E_A} v, E_B>
    return ShapeDataBatch(
        data=ShapeData(h=h, a=dv_frame[:, :n, :n], vvec=dv_frame[:, n, :n]),
        frame=FrameBatch(e=_frame_vectors(geo, w), v=P / Pn[:, None], normal=geo.normal),
        h_asymmetry=h_asym,
        dv_e_dot_v=dv_frame[:, :n, n],
        dv_v_dot_v=dv_frame[:, n, n],
        volume_factor=geo.volume_factor,
    )


def chart_forms_batch(
    surface: ChartedHypersurface,
    field: TangentField,
    chart_index: int,
    U: np.ndarray,
    ws: manifold.Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """h and the field derivative as chart-basis forms, frame-free.

    Returns ``h[a, b] = h(F_a, F_b) = -<N, F_ab>``, ``D[a, b] = <d_a v,
    F_b>``, det g and the volume factor at a batch of chart points, F_a
    being the chart partials.  A bilinear form's determinant in an
    orthonormal frame is its chart-basis determinant over det g, so
    ``det(h + t D) / det g`` is ``sum_k eta_k t^k``.  D is p x p chart
    algebra, with no normal derivative and no frame: by the Weingarten
    equation ``K = <d_a P, F_b>`` is ``(d raw)^T J + <raw, N> L`` for the
    tangential part P of the raw field; with ``s = J^T raw``, ``w = g^-1 s
    / |P|`` are the chart coordinates of v = P / |P| and ``D = (K - (K w)
    s^T / |P|) / |P|``.  ``g^-1 s`` comes from a solve with the block's
    Cholesky factor (``GeometryBatch.metric_chol``); no inverse is formed.
    ``shape_data_batch`` reads these same forms, so it makes the same
    checks: Euler characteristic, ``DegenerateImmersion`` (rank-deficient
    or non-finite chart partials, a metric that is not positive definite)
    and ``VanishingField`` (a vanishing or non-finite field value, a
    non-finite D), each naming the point.  Given a workspace ``ws`` (a
    grid pass's), h and D are its buffers, valid until its next batch;
    without one they are fresh.
    """
    geo, _, _, D, _ = _chart_forms(surface, field, chart_index, U, ws)
    vf = geo.volume_factor
    return np.negative(geo.second_form, out=geo.second_form), D, vf * vf, vf


def shape_data(
    surface: ChartedHypersurface, field: TangentField, chart_index: int, u
) -> ShapeData:
    """h, a and vvec at a single chart point (v last in the frame order)."""
    U, _ = manifold._as_batch(u)
    batch = shape_data_batch(surface, field, chart_index, U)
    d = batch.data
    return ShapeData(h=d.h[0], a=d.a[0], vvec=d.vvec[0])
