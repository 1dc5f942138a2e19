"""Pointwise mixed invariants of curvature and field derivatives.

Tilting the unit normal toward the unit field by t gives a sphere-valued
map whose differential, written in adapted frames, has columns
H_j + t V_j (j = 1..n) and sqrt(1+t^2) H_{n+1}.  Its determinant is
sqrt(1+t^2) * sum_k eta_k t^k; the coefficients eta_k are column
replacement determinant sums and are what this module computes.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange
from .fields import ShapeData
from .manifold import _det


@dataclass(frozen=True)
class ColumnSystem:
    """Column data for the invariant determinants.

    ``H`` is the (p, p) symmetric curvature matrix whose j-th column is
    H_j; ``V`` is (p, n) whose j-th column is (a_1j, ..., a_nj, vvec_j).
    Leading batch axes are allowed on both.
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
        return self.V.shape[-1]


@dataclass(frozen=True)
class EtaVector:
    """Values eta_0 .. eta_n (trailing axis when batched)."""

    values: np.ndarray

    def __getitem__(self, k):
        return self.values[..., k]


def eta(k: int, cols: ColumnSystem) -> np.ndarray:
    """Sum over k-subsets S of {1..n} of det(columns: V_j if j in S else H_j).

    Column n+1 is always H_{n+1}.  The k-th entry of ``eta_all``.
    """
    n = cols.n
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside [0, {n}]")
    return eta_all(cols)[k]


def eta_all(cols: ColumnSystem) -> EtaVector:
    """All eta_k at once from one determinant pass over the 2^n subsets.

    Every subset matrix is gathered from [H | V] with one index (column j
    from V when j is in the subset, else from H), all determinants come
    from one ``manifold._det`` call, and each eta_k is summed left to right
    in lexicographic subset order, so the result is bit-reproducible.
    """
    n = cols.n
    p = n + 1
    order = [(k, s) for k in range(n + 1) for s in combinations(range(n), k)]
    picks = np.array([[p + j if j in s else j for j in range(p)] for _, s in order])
    HV = np.concatenate([cols.H, cols.V], axis=-1)
    dets = _det(HV[..., np.arange(p)[:, None], picks[:, None, :]])
    sums = [0.0] * (n + 1)
    for (k, _), d in zip(order, np.moveaxis(dets, -1, 0)):
        sums[k] = sums[k] + d
    return EtaVector(values=np.stack(sums, axis=-1))


def tilt_jacobian(cols: ColumnSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Differential of the tilted normal map and its determinant.

    Columns are H_j + t V_j for j <= n and sqrt(1+t^2) H_{n+1} last.
    t = 0 is accepted and gives det = eta_0.
    """
    n = cols.n
    M = np.array(cols.H, copy=True)
    M[..., :, :n] = M[..., :, :n] + t * cols.V
    M[..., :, n] = np.sqrt(1.0 + t * t) * cols.H[..., :, n]
    return M, np.linalg.det(M)
