"""Closed parametrized hypersurfaces and their first/second-order geometry.

A hypersurface of dimension n+1 sits in Euclidean space of dimension n+2
and is described by one or more charts.  Each chart supplies a vectorized
position map together with first (and ideally second) partial derivatives.
From those this module derives the induced metric, the chart volume
factor, the unit normal (the normal map into the sphere), the derivative
of the normal, and the second fundamental form in any orthonormal frame.

Evaluation contracts are batched: parameter points are arrays of shape
(B, p) with p = n+1, positions are (B, q) with q = n+2.  The public
single-point operations wrap the batched kernels.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._finitediff import partial_stack
from .errors import DegenerateImmersion, FrameNotOrthonormal

# Relative rank threshold: the cross product of the tangent vectors must
# exceed this times the product of their norms, else the chart differential
# is treated as rank-deficient.
_DEGENERACY_RTOL = 1e-12

_FRAME_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SurfaceMetadata:
    """Catalog identity and topological data supplied by the user."""

    key: str = ""
    name: str = ""
    betti: tuple[int, ...] | None = None
    euler_characteristic: int | None = None


@dataclass(frozen=True)
class Chart:
    """One parametrized patch of a hypersurface.

    ``position`` maps (B, p) parameter points to (B, q) ambient points;
    ``first_partials`` returns (B, q, p) with column a holding dF/du_a;
    ``second_partials`` returns (B, q, p, p) with [:, :, a, b] = d2F/du_a du_b.
    If ``second_partials`` is omitted a finite-difference wrapper around
    ``first_partials`` is installed.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    periodic: tuple[bool, ...]
    position: Callable[[np.ndarray], np.ndarray]
    first_partials: Callable[[np.ndarray], np.ndarray]
    second_partials: Callable[[np.ndarray], np.ndarray] | None = None
    weight_fraction: float = 1.0

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.periodic)):
            raise ValueError("lo, hi and periodic must have equal length")
        if self.second_partials is None:
            fd = partial_stack(self.first_partials, self.lo, self.hi)
            object.__setattr__(self, "second_partials", fd)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def midpoint(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))


@dataclass(frozen=True)
class ChartedHypersurface:
    """A closed oriented immersed hypersurface given by charts.

    ``n_intrinsic`` is the parameter n: the surface has dimension n+1 and
    the ambient space dimension n+2.  ``orientation_sign`` globally flips
    the computed normal; with +1 the tangent basis followed by the normal
    is positively oriented in the ambient space.
    """

    n_intrinsic: int
    charts: tuple[Chart, ...]
    orientation_sign: int = 1
    metadata: SurfaceMetadata = field(default_factory=SurfaceMetadata)

    def __post_init__(self):
        if self.n_intrinsic < 1:
            raise ValueError("n_intrinsic must be >= 1")
        if self.orientation_sign not in (-1, 1):
            raise ValueError("orientation_sign must be +1 or -1")
        if not self.charts:
            raise ValueError("at least one chart required")
        p, q = self.dim, self.ambient_dim
        for i, chart in enumerate(self.charts):
            if chart.dim != p:
                raise ValueError(f"chart {i}: expected {p} coordinates")
            probe = chart.midpoint()[None, :]
            pos = np.asarray(chart.position(probe))
            if pos.shape != (1, q):
                raise ValueError(
                    f"chart {i}: position returned shape {pos.shape}, "
                    f"expected (1, {q}); ambient dimension must be n+2"
                )
            jac = np.asarray(chart.first_partials(probe))
            if jac.shape != (1, q, p):
                raise ValueError(f"chart {i}: first_partials shape {jac.shape}")

    @property
    def dim(self) -> int:
        return self.n_intrinsic + 1

    @property
    def ambient_dim(self) -> int:
        return self.n_intrinsic + 2


@dataclass(frozen=True)
class PointGeometry:
    """First-order data at a chart point."""

    position: np.ndarray        # (q,)
    tangent_basis: np.ndarray   # (p, q) rows dF/du_a
    metric: np.ndarray          # (p, p)
    volume_factor: float        # sqrt(det metric)
    normal: np.ndarray          # (q,) unit


class GeometryBatch(NamedTuple):
    jacobian: np.ndarray       # (B, q, p)
    tangents: np.ndarray       # (B, p, q), C-contiguous transpose of jacobian
    metric: np.ndarray         # (B, p, p)
    metric_inv: np.ndarray     # (B, p, p)
    volume_factor: np.ndarray  # (B,)
    normal: np.ndarray         # (B, q)
    second_form: np.ndarray | None  # (B, p, p), <N, d2F/du_a du_b>

    @property
    def dnormal(self) -> np.ndarray | None:
        """(B, p, q), row a = dN/du_a = -sum_{b,c} <N, F_ab> g^{bc} F_c.

        The Weingarten equation; None when second partials were not
        evaluated.  Formed on each access, so bind it once.
        """
        if self.second_form is None:
            return None
        coeff = np.swapaxes(self.metric_inv @ self.second_form, -1, -2)
        return -coeff @ np.swapaxes(self.jacobian, -1, -2)


def _minor_det(M: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """det M[..., rows, cols] by cofactor expansion along rows[0]."""
    if not rows:
        return np.ones(M.shape[:-2])
    if len(rows) == 1:
        return M[..., rows[0], cols[0]]
    if len(rows) == 2:
        (r, s), (a, b) = rows, cols
        return M[..., r, a] * M[..., s, b] - M[..., r, b] * M[..., s, a]
    total = 0.0
    for j, c in enumerate(cols):
        term = M[..., rows[0], c] * _minor_det(M, rows[1:], cols[:j] + cols[j + 1:])
        total = total - term if j % 2 else total + term
    return total


def _det(M: np.ndarray) -> np.ndarray:
    """Determinant over the trailing (p, p) axes.

    Cofactor expansion down to closed-form 2x2 blocks: for the p <= 5
    matrices of chart geometry and of the eta subset sums this is a few
    dozen vector operations per batch, where batched LAPACK pays a call
    per matrix.
    """
    idx = tuple(range(M.shape[-1]))
    return _minor_det(M, idx, idx)


def _inverse(M: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverse over the trailing (p, p) axes: adjugate over ``det`` = _det(M)."""
    p = M.shape[-1]
    idx = tuple(range(p))
    adj = np.empty(M.shape)
    for i in range(p):
        for j in range(p):
            minor = _minor_det(M, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
            adj[..., i, j] = -minor if (i + j) % 2 else minor
    return adj / det[..., None, None]


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Vector orthogonal to p = q-1 vectors in q-space (Hodge dual).

    ``vectors`` has shape (..., p, q) with the vectors as rows.  The result
    X satisfies <X, y> = det[v_1 | ... | v_p | y] for every y, so the rows
    followed by X are positively oriented and |X| equals the p-volume they
    span.
    """
    vs = np.asarray(vectors, dtype=float)
    p, q = vs.shape[-2], vs.shape[-1]
    if q != p + 1:
        raise ValueError(f"need q = p+1 vectors, got {p} vectors in R^{q}")
    cols = np.swapaxes(vs, -1, -2)  # (..., q, p)
    # row i of ``kept`` lists the rows of cols that survive deleting row i
    kept = np.array([[r for r in range(q) if r != i] for i in range(q)])
    minors = cols[..., kept, :]  # (..., q, p, p)
    signs = np.where((np.arange(q) + p) % 2 == 0, 1.0, -1.0)
    return _det(minors) * signs


def _as_batch(u: np.ndarray) -> tuple[np.ndarray, bool]:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return u[None, :], True
    return u, False


def _raise_degenerate(U, bad):
    idx = int(np.argmax(bad))
    pt = np.asarray(U)[idx]
    raise DegenerateImmersion(
        f"chart differential rank-deficient at u={pt.tolist()}"
    )


def geometry_batch(
    surface: ChartedHypersurface,
    chart_index: int,
    U: np.ndarray,
    second: bool = True,
) -> GeometryBatch:
    """Evaluate chart geometry at a batch of parameter points.

    Only the chart partials are evaluated, not the position.  With
    ``second=True`` the second partials are contracted with the normal into
    ``second_form``, from which ``GeometryBatch.dnormal`` gives the
    derivative of the unit normal.  The metric inverse is formed once per
    batch, after the degeneracy check.
    """
    chart = surface.charts[chart_index]
    U = np.asarray(U, dtype=float)
    sgn = float(surface.orientation_sign)

    J = np.asarray(chart.first_partials(U), dtype=float)
    # a strided transpose sends matmul down its slow loop; the bits are the same
    tangents = np.ascontiguousarray(np.swapaxes(J, -1, -2))  # (B, p, q)

    G = generalized_cross(tangents)  # (B, q)
    Gnorm = np.linalg.norm(G, axis=-1)
    g = tangents @ J
    # product of the tangent norms, read off the metric diagonal
    scale = np.sqrt(np.prod(np.diagonal(g, axis1=-2, axis2=-1), axis=-1))
    bad = Gnorm <= _DEGENERACY_RTOL * scale
    if np.any(bad):
        _raise_degenerate(U, bad)
    normal = sgn * G / Gnorm[:, None]

    det_g = _det(g)
    volume_factor = np.sqrt(det_g)
    metric_inv = _inverse(g, det_g)

    L = None
    if second:
        H2 = np.asarray(chart.second_partials(U), dtype=float)
        L = np.einsum("xq,xqab->xab", normal, H2)

    return GeometryBatch(J, tangents, g, metric_inv, volume_factor, normal, L)


def tangent_coefficients(geo: GeometryBatch, X: np.ndarray) -> np.ndarray:
    """Chart-basis coefficients of tangent directions.

    ``X`` has shape (B, m, q); returns c of shape (B, p, m) solving
    J c = X in the least-squares sense via the metric (exact for tangent X).
    """
    rhs = np.swapaxes(geo.jacobian, -1, -2) @ np.swapaxes(X, -1, -2)
    return geo.metric_inv @ rhs


def second_fundamental_form(
    dnormal_frame: np.ndarray, frame_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix <D_{E_A} N, E_B> over an orthonormal tangent frame.

    ``dnormal_frame`` (B, p, q) holds the derivatives D_{E_A} N of the unit
    normal as rows, ``frame_t`` (B, q, p) the frame vectors E_B as columns.
    Returns the symmetrized matrix and the max-entry asymmetry of the raw
    one.
    """
    h_raw = dnormal_frame @ frame_t
    h_t = np.swapaxes(h_raw, -1, -2)
    asym = np.max(np.abs(h_raw - h_t), axis=(-2, -1))
    return 0.5 * (h_raw + h_t), asym


def unit_normal(surface: ChartedHypersurface, chart_index: int, u) -> np.ndarray:
    """Outward-convention unit normal at a chart point.

    The normal is the normalized generalized cross product of the chart
    tangent vectors times ``orientation_sign``, so the tangent basis
    followed by the normal is positively oriented when the sign is +1.
    """
    U, single = _as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    return geo.normal[0] if single else geo.normal


def point_geometry(surface: ChartedHypersurface, chart_index: int, u) -> PointGeometry:
    """Bundle position, tangent basis, metric, volume factor and normal."""
    U, _ = _as_batch(u)
    geo = geometry_batch(surface, chart_index, U, second=False)
    position = np.asarray(surface.charts[chart_index].position(U), dtype=float)
    return PointGeometry(
        position=position[0],
        tangent_basis=np.swapaxes(geo.jacobian[0], -1, -2),
        metric=geo.metric[0],
        volume_factor=float(geo.volume_factor[0]),
        normal=geo.normal[0],
    )


def shape_operator(
    surface: ChartedHypersurface,
    chart_index: int,
    u,
    frame: np.ndarray,
    return_asymmetry: bool = False,
):
    """Second fundamental form h_AB = <D_{E_A} N, E_B> in the given frame.

    ``frame`` is (p, q), rows orthonormal and tangent within 1e-10.  The
    returned matrix is explicitly symmetrized; pass ``return_asymmetry``
    to also obtain the max-entry asymmetry of the raw matrix.
    """
    U, _ = _as_batch(u)
    E = np.asarray(frame, dtype=float)[None, :, :]
    p = surface.dim
    if E.shape[1:] != (p, p + 1):
        raise FrameNotOrthonormal(f"frame must have shape ({p}, {p + 1})")
    gram = np.einsum("xmq,xkq->xmk", E, E)
    if np.max(np.abs(gram - np.eye(p))) > _FRAME_ORTHO_TOL:
        raise FrameNotOrthonormal("frame fails orthonormality tolerance 1e-10")
    geo = geometry_batch(surface, chart_index, U, second=True)
    ct = np.swapaxes(tangent_coefficients(geo, E), -1, -2)
    h, asym = second_fundamental_form(ct @ geo.dnormal, np.swapaxes(E, -1, -2))
    if return_asymmetry:
        return h[0], float(asym[0])
    return h[0]


def shape_determinant_batch(
    surface: ChartedHypersurface, chart_index: int, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """det of the normal-map differential, frame-free, and the volume factor.

    By the Weingarten equation <dN/du_a, dF/du_b> = -<N, d2F/du_a du_b>, so
    the determinant is (-1)^p det(<N, d2F/du_a du_b>) / det(metric); it
    equals the determinant of the second fundamental form in any
    orthonormal frame.  The chart volume factor of the same evaluation is
    returned alongside for integration.
    """
    geo = geometry_batch(surface, chart_index, U, second=True)
    sign = (-1.0) ** surface.dim
    det = sign * _det(geo.second_form) / _det(geo.metric)
    return det, geo.volume_factor
