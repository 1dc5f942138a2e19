"""Unit tangent fields, adapted frames, and their derivative components.

A field is specified ambiently: a raw vector at each chart point, which is
projected onto the tangent space and normalized.  Around a unit field v
this module builds the adapted orthonormal frame {e_1, ..., e_n, v} (v is
always placed last) and computes the frame components of the covariant
derivative of v together with the second fundamental form in that frame.
The integral passes need neither frame: ``chart_forms_batch`` gives the
same two forms in the chart basis, whose determinants over det g are the
frame ones.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import manifold
from ._finitediff import partial_stack
from .errors import DegenerateImmersion, VanishingField
from .manifold import ChartedHypersurface, GeometryBatch, geometry_batch

_VANISHING_TOL = 1e-10
_GS_ZERO_RTOL = 1e-12
_GS_RANK_RTOL = 1e-10

finite_difference_jacobian = partial_stack


@dataclass(frozen=True)
class TangentField:
    """Ambiently specified vector field on a hypersurface.

    ``ambient_value(chart_index, U)`` returns raw vectors (B, q); an
    optional ``ambient_jacobian(chart_index, U)`` returns their parameter
    derivatives (B, q, p).  Without the jacobian, central finite
    differences with one Richardson level are used.  Raw values may be
    mildly non-tangent (up to ~1e-6); projection enforces exact tangency.
    """

    ambient_value: Callable[[int, np.ndarray], np.ndarray]
    ambient_jacobian: Callable[[int, np.ndarray], np.ndarray] | None = None
    key: str = ""


def _field_jacobian(field: TangentField, surface: ChartedHypersurface,
                    chart_index: int, U: np.ndarray) -> np.ndarray:
    if field.ambient_jacobian is not None:
        return np.ascontiguousarray(field.ambient_jacobian(chart_index, U), dtype=float)
    chart = surface.charts[chart_index]
    fd = partial_stack(lambda V: np.asarray(field.ambient_value(chart_index, V)),
                       chart.lo, chart.hi)
    return fd(U)


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


def project_field_batch(
    field: TangentField,
    geo: GeometryBatch,
    chart_index: int,
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw field values, their normal component, tangential part and its norm."""
    # C order: einsum's summation order, and so the bits, follow the strides
    raw = np.ascontiguousarray(field.ambient_value(chart_index, U), dtype=float)
    rn = np.einsum("xq,xq->x", raw, geo.normal)
    P = raw - rn[:, None] * geo.normal
    Pn = np.linalg.norm(P, axis=-1)
    if np.any(Pn < _VANISHING_TOL):
        idx = int(np.argmax(Pn < _VANISHING_TOL))
        raise VanishingField(
            f"tangential part of field vanishes at u={np.asarray(U)[idx].tolist()}"
        )
    return raw, rn, P, Pn


def normalize_and_project(
    field: TangentField, surface: ChartedHypersurface, chart_index: int, u
) -> np.ndarray:
    """Unit tangent value of the field at a chart point."""
    _check_field_allowed(surface)
    U, single = manifold._as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    _, _, P, Pn = project_field_batch(field, geo, chart_index, U)
    v = P / Pn[:, None]
    return v[0] if single else v


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, as the root of a self dot product."""
    return np.sqrt(np.einsum("...q,...q->...", x, x))


def _pivoted_frame(geo: GeometryBatch, v: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent complement of v, chart order.

    Gram-Schmidt over the chart tangent vectors with v removed first.
    Exactly one of the p projected vectors is discarded: the one whose
    sequential residual norm is smallest, ties going to the lowest index.
    Deterministic by construction.
    """
    tangents = np.swapaxes(geo.jacobian, -1, -2)  # (B, p, q)
    B, p, q = tangents.shape
    n = p - 1
    w = tangents - np.einsum("xaq,xq->xa", tangents, v)[:, :, None] * v[:, None, :]
    scale = np.max(_norm(w), axis=-1)  # (B,)

    # Pass 1: modified Gram-Schmidt residual norms; near-zero residuals
    # become zero vectors so later projections are unaffected.
    r = w.copy()
    res = np.empty((B, p))
    for a in range(p):
        ra = r[:, a, :]
        nr = _norm(ra)
        res[:, a] = nr
        ok = nr > _GS_ZERO_RTOL * scale
        e = np.where(ok[:, None], ra / np.where(ok, nr, 1.0)[:, None], 0.0)
        if a + 1 < p:
            r[:, a + 1:, :] -= np.einsum("xbq,xq->xb", r[:, a + 1:, :], e)[:, :, None] * e[:, None, :]
    discard = np.argmin(res, axis=1)

    # Pass 2: clean MGS over the kept vectors in chart order.
    keep = np.argsort(np.arange(p)[None, :] == discard[:, None],
                      axis=1, kind="stable")[:, :n]
    w2 = np.take_along_axis(w, keep[:, :, None], axis=1)
    out = np.empty((B, n, q))
    for a in range(n):
        ra = w2[:, a, :]
        nr = _norm(ra)
        low = nr <= _GS_RANK_RTOL * scale
        if np.any(low):
            pt = np.asarray(U)[int(np.argmax(low))]
            raise DegenerateImmersion(
                "tangent vectors do not span the field complement at "
                f"u={pt.tolist()}"
            )
        ea = ra / nr[:, None]
        out[:, a, :] = ea
        if a + 1 < n:
            w2[:, a + 1:, :] -= np.einsum("xbq,xq->xb", w2[:, a + 1:, :], ea)[:, :, None] * ea[:, None, :]
    return out


def adapted_frame(
    surface: ChartedHypersurface, chart_index: int, u, v: np.ndarray
) -> AdaptedFramePoint:
    """Adapted orthonormal frame {e_1, ..., e_n, v} at a chart point."""
    U, _ = manifold._as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    vb = np.asarray(v, dtype=float)[None, :]
    e = _pivoted_frame(geo, vb, U)
    return AdaptedFramePoint(e=e[0], v=vb[0], normal=geo.normal[0])


def shape_data_batch(
    surface: ChartedHypersurface,
    field: TangentField,
    chart_index: int,
    U: np.ndarray,
) -> ShapeDataBatch:
    """Adapted frame plus h, a, vvec at a batch of chart points.

    The ambient derivative of the normalized projected field is assembled
    analytically from the field jacobian and the normal derivative, then
    contracted against the frame via the chart chain rule.
    """
    _check_field_allowed(surface)
    U = np.asarray(U, dtype=float)
    geo = geometry_batch(surface, chart_index, U, second=True)
    n = surface.n_intrinsic

    raw, rn, P, Pn = project_field_batch(field, geo, chart_index, U)
    v = P / Pn[:, None]

    rawJ = _field_jacobian(field, surface, chart_index, U)
    draw = np.swapaxes(rawJ, -1, -2)               # (B, p, q)
    N = geo.normal
    dN = geo.dnormal
    drn = np.einsum("xaq,xq->xa", draw, N) + np.einsum("xq,xaq->xa", raw, dN)
    dP = (draw
          - drn[:, :, None] * N[:, None, :]
          - rn[:, None, None] * dN)
    dv = (dP - np.einsum("xq,xaq->xa", v, dP)[:, :, None] * v[:, None, :]) / Pn[:, None, None]

    e = _pivoted_frame(geo, v, U)
    frame = np.concatenate([e, v[:, None, :]], axis=1)  # (B, p, q), v last
    frame_t = np.ascontiguousarray(np.swapaxes(frame, -1, -2))  # matmul runs faster on it

    ct = np.swapaxes(manifold.tangent_coefficients(geo, frame), -1, -2)
    Dv = ct @ dv                                       # derivative of v along frame
    h, h_asym = manifold.second_fundamental_form(ct @ dN, frame_t)

    # <D_m v, frame_k>: a, vvec and both <nabla v, v> residuals in one product
    dv_frame = Dv @ frame_t
    a = dv_frame[:, :n, :n]
    vvec = dv_frame[:, n, :n]
    dv_e_dot_v = dv_frame[:, :n, n]
    dv_v_dot_v = dv_frame[:, n, n]

    return ShapeDataBatch(
        data=ShapeData(h=h, a=a, vvec=vvec),
        frame=FrameBatch(e=e, v=v, normal=N),
        h_asymmetry=h_asym,
        dv_e_dot_v=dv_e_dot_v,
        dv_v_dot_v=dv_v_dot_v,
        volume_factor=geo.volume_factor,
    )


def chart_forms_batch(
    surface: ChartedHypersurface,
    field: TangentField,
    chart_index: int,
    U: np.ndarray,
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
    s^T / |P|) / |P|``.  The field and geometry checks are those of
    ``shape_data_batch``: Euler characteristic, ``DegenerateImmersion``
    and ``VanishingField``, each naming the point.
    """
    _check_field_allowed(surface)
    U = np.asarray(U, dtype=float)
    geo = geometry_batch(surface, chart_index, U, second=True)
    raw, rn, _, Pn = project_field_batch(field, geo, chart_index, U)
    rawJ = _field_jacobian(field, surface, chart_index, U)

    L = geo.second_form
    K = np.swapaxes(geo.tangents @ rawJ, -1, -2) + rn[:, None, None] * L
    s = geo.tangents @ raw[:, :, None]                # (B, p, 1), J^T raw
    Kw = K @ (geo.metric_inv @ s) / (Pn * Pn)[:, None, None]  # K w / |P|
    D = (K - Kw * np.swapaxes(s, -1, -2)) / Pn[:, None, None]
    vf = geo.volume_factor
    return -L, D, vf * vf, vf


def shape_data(
    surface: ChartedHypersurface, field: TangentField, chart_index: int, u
) -> ShapeData:
    """h, a and vvec at a single chart point (v last in the frame order)."""
    U, _ = manifold._as_batch(u)
    batch = shape_data_batch(surface, field, chart_index, U)
    d = batch.data
    return ShapeData(h=d.h[0], a=d.a[0], vvec=d.vvec[0])
