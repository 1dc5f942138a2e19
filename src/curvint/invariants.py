"""Pointwise mixed invariants of curvature and field derivatives.

Tilting the unit normal toward the unit field by t gives a sphere-valued
map whose differential, written in adapted frames, has columns
H_j + t V_j (j = 1..n) and sqrt(1+t^2) H_{n+1}.  Its determinant is
sqrt(1+t^2) * sum_k eta_k t^k, and sum_k eta_k t^k = det(H + t [V | 0]).
This module computes the coefficients eta_k, all at once, from one table
of the polynomial minors of H + t V (``manifold._minors``).

The identity is frame-free: the determinant of a bilinear form in an
orthonormal frame is its determinant in any basis over the Gram
determinant.  So the same polynomial may be taken over the chart-basis
forms h(F_a, F_b) and <d_a v, F_b>, with V then carrying p columns, and
divided by det g (``fields.chart_forms_batch``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .fields import ShapeData
from .manifold import _det, _minors


@dataclass(frozen=True)
class ColumnSystem:
    """The two matrices of the invariant polynomial det(H + t V).

    ``H`` is the (p, p) symmetric curvature matrix whose j-th column is
    H_j.  ``V`` is either frame form, (p, n) with j-th column (a_1j, ...,
    a_nj, vvec_j), or chart form, (p, p) with ``V[a, b] = <d_a v, F_b>``
    beside ``H[a, b] = h(F_a, F_b)``.  Either way ``sum_k eta_k t^k`` is
    ``det(H + t V)`` (V padded with a zero column in frame form), divided
    by det g in chart form.  ``n`` is p - 1 for both.  Leading batch axes
    are allowed on both.
    """

    H: np.ndarray
    V: np.ndarray

    @classmethod
    def from_shape_data(cls, sd: ShapeData) -> "ColumnSystem":
        a = np.asarray(sd.a)
        vv = np.asarray(sd.vvec)
        V = np.concatenate([a, vv[..., None, :]], axis=-2)
        return cls(H=np.asarray(sd.h), V=V)

    @property
    def n(self) -> int:
        return self.H.shape[-1] - 1


@dataclass(frozen=True)
class EtaVector:
    """Values eta_0 .. eta_n (trailing axis when batched)."""

    values: np.ndarray

    def __getitem__(self, k):
        return self.values[..., k]


def eta(k: int, cols: ColumnSystem) -> np.ndarray:
    """Sum over k-subsets S of V's columns of det(columns: V_j if j in S else H_j).

    In frame form column n+1 is always H_{n+1}.  The k-th entry of
    ``eta_all``.
    """
    n = cols.n
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside [0, {n}]")
    return eta_all(cols)[k]


def eta_all(cols: ColumnSystem) -> EtaVector:
    """All eta_k at once: the first n + 1 t-coefficients of det(H + t V).

    Frame-form V gets a zero column first, so both forms read one
    ``manifold._minors`` table, whose single top entry holds the whole
    polynomial.  The t^0 coefficient has the bits of ``_det(H)``.  The
    t^p one, det V, is dropped: it vanishes in frame form, and in chart
    form V times the chart coordinates of v is <d_a v, v> = 0.  In chart
    form the coefficients are still to be divided by det g.  The values
    are stored batch-last, one contiguous vector per k.
    """
    V = cols.V
    if V.shape[-1] == cols.n:
        V = np.concatenate([V, np.zeros(V.shape[:-1] + (1,))], axis=-1)
    (poly,) = _minors(cols.H, V).values()
    return EtaVector(values=poly[:cols.n + 1].transpose(*range(1, poly.ndim), 0))


def tilt_jacobian(cols: ColumnSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Differential of the tilted normal map and its determinant.

    Columns are H_j + t V_j for j <= n and sqrt(1+t^2) H_{n+1} last.
    t = 0 is accepted and gives det = eta_0.  ``cols.V`` must be in frame
    form.
    """
    n = cols.n
    if cols.V.shape[-1] != n:
        raise ValueError(f"tilt_jacobian needs frame-form V with {n} columns")
    M = np.array(cols.H, copy=True)
    M[..., :, :n] = M[..., :, :n] + t * cols.V
    M[..., :, n] = np.sqrt(1.0 + t * t) * cols.H[..., :, n]
    return M, _det(M)
