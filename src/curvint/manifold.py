"""Closed parametrized hypersurfaces and their first/second-order geometry.

A hypersurface of dimension n+1 sits in Euclidean space of dimension n+2
and is described by one or more charts.  Each chart supplies a vectorized
position map together with first (and ideally second) partial derivatives.
From those this module derives the induced metric and its Cholesky
factor, the chart volume factor, the unit normal (the normal map into the
sphere) and the second fundamental form, as the chart-basis form
``-<N, d2F/du_a du_b>`` and in any orthonormal tangent frame.  Chart
coordinates of tangent vectors come from solves with the factor; no
grid pass forms the metric inverse.

Evaluation contracts are batched: parameter points are arrays of shape
(B, p) with p = n+1, positions are (B, q) with q = n+2.  The public
single-point operations wrap the batched kernels.

Layout: every per-point array of a block keeps its (B, ...) shape but is
stored batch-last, so that ``np.moveaxis(A, 0, -1)`` is C-contiguous and
each entry ``A[:, i, j]`` is one contiguous (B,) vector.  The minor
table (``_minors``, which gives the unit normal and every determinant),
the Cholesky recurrence and the frame read such entries directly, and
each contraction (the metric, the second form, a row of a field form)
is one ``einsum`` whose output keeps the layout.  Catalog charts write
their partials in this layout; ``geometry_batch`` copies partials of any
other layout once (``_batch_last``), so results do not depend on the
layout a chart returns.  Work on one block stays in few, long vector
operations, as every numpy call has a fixed cost of a few microseconds,
and in a small working set, as a process pays a page fault for each
fresh page that a block writes: the Cholesky factor and the triangular
solves work in place, and the metric is not kept.  The engine's passes
over a catalog surface run their blocks in worker processes
(``quadrature._run_blocks``): threads would contend for the interpreter
lock at every numpy call, so a kernel of many short calls would gain
little from a second thread.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from ._finitediff import partial_stack
from .errors import DegenerateImmersion, FrameNotOrthonormal

# Relative rank threshold: the cross product of the tangent vectors must
# exceed this times the product of their norms, else the chart differential
# is treated as rank-deficient.
_DEGENERACY_RTOL = 1e-12

_FRAME_ORTHO_TOL = 1e-10

# Points per read of the chart's second partials: the (B, q, p, p) array is
# the largest a batch would hold, and only the contractions are kept.
SECOND_CHUNK = 4096


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
    Any memory layout is accepted; batch-last storage (the module's
    layout) saves the grid passes one copy per block.  If
    ``second_partials`` is omitted a finite-difference wrapper around
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
            hess = np.asarray(chart.second_partials(probe))
            if hess.shape != (1, q, p, p):
                raise ValueError(f"chart {i}: second_partials shape {hess.shape}")

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
    volume_factor: float        # sqrt(det metric), the norm of the cross product
    normal: np.ndarray          # (q,) unit


class GeometryBatch(NamedTuple):
    """Chart geometry of one block, from one evaluation of the chart partials.

    Every array is stored batch-last (see the module docstring).
    ``jacobian`` is the chart's first partials J in that layout, and
    ``field_form`` the form ``(d2F c)^T J`` of a coordinate field with
    coefficients c, so that such a field is read off the block instead of
    calling the chart again.  ``second_form`` is None when the block was
    evaluated with ``second=False``, and ``field_form`` unless it was
    evaluated with ``second=True`` and coefficients.  ``metric_chol`` is
    the lower Cholesky factor of the metric, indexed batch-last for
    ``_cholesky_solve``.  The metric itself is not kept (``metric`` forms
    it again), and no metric inverse is formed.
    """

    jacobian: np.ndarray       # (B, q, p)
    metric_chol: np.ndarray    # (p, p, B), metric = C C^T, C lower triangular
    volume_factor: np.ndarray  # (B,), |cross product| = sqrt(det metric)
    normal: np.ndarray         # (B, q)
    second_form: np.ndarray | None  # (B, p, p), <N, d2F/du_a du_b>
    field_form: np.ndarray | None = None  # (B, p, p), <d2F/du_a du_c c_c, F_b>

    @property
    def metric(self) -> np.ndarray:
        """The (B, p, p) metric J^T J, batch-last, with the bits that
        ``geometry_batch`` factored."""
        return np.einsum("xqa,xqb->xab", self.jacobian, self.jacobian)


class Workspace:
    """Float64 buffers that one worker's batches reuse, one flat buffer per name.

    ``take(name, shape)`` views the leading part of the name's buffer as a
    C-contiguous array of ``shape``, whose last axis is the batch.  A
    buffer holds at least ``points`` batch entries, so every batch of up to
    ``points`` points (a whole block or a partial last one) reuses it.  A
    view stays valid until the name is taken again, so only the kernel
    that took it may keep it, and only one thread may use a workspace at a
    time (``quadrature`` keeps one per thread).  The engine's kernels keep the
    second form ``L`` and the field form ``K``, which becomes the field
    derivative D, in it: 2 p^2 float64 per point.
    """

    def __init__(self, points: int):
        self.points = points
        self._flat = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size:
            per_point = size // shape[-1] if shape[-1] else 0
            buf = self._flat[name] = np.empty(max(size, per_point * self.points))
        return buf[:size].reshape(shape)


def _empty(ws: Workspace | None, name: str, B: int, *entry: int) -> np.ndarray:
    """A (B, *entry) float64 array stored batch-last: the workspace's buffer
    ``name`` when ``ws`` is given, else a fresh one."""
    shape = entry + (B,)
    store = np.empty(shape) if ws is None else ws.take(name, shape)
    return store.transpose(len(entry), *range(len(entry)))


def _batch_last(A) -> np.ndarray:
    """(B, ...) float array A as a view of C-contiguous batch-last storage.

    A view of such storage is returned as it is; any other layout is
    copied once.
    """
    A = np.asarray(A, dtype=float)
    n = A.ndim
    return np.ascontiguousarray(A.transpose(*range(1, n), 0)).transpose(n - 1, *range(n - 1))


def _dot_last(A: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ c over the last axis of batch-last A, summed in entry order.

    One vector operation per term, each over every entry, so the output
    keeps the layout and no temporary of A's size is made; with one point
    einsum would sum the lone contiguous axis in another order, and a
    point is to get the same bits alone as in a block.  ``out`` receives
    the result when given.
    """
    out = np.multiply(A[..., 0], c[0], out=out)
    for a in range(1, len(c)):
        out += A[..., a] * c[a]
    return out


def _minors(M: np.ndarray, V: np.ndarray | None = None) -> dict:
    """r x r minors of the (..., r, m) matrices M + tV, keyed by column subset.

    Built bottom-up: each level expands along the row above, left to right
    with alternating signs, and only one level is kept at a time.  A minor
    is the (k, ...) array of its t-coefficients, k = 1 without V, so that
    each step of the expansion is one vector operation over all
    coefficients.  Constant terms have the bits of cofactor expansion
    along the first row, whose ``0.0 +`` start above 2 x 2 fixes the sign
    of a zero.  For p <= 5 that is a few dozen vector operations per
    batch, where batched LAPACK pays a call per matrix; on batch-last M
    each entry is one contiguous vector.  The 1 x 1 minors without V are
    views of M.
    """
    r, m = M.shape[-2:]
    if r == 0:
        return {(): np.ones(1)}
    level = {(c,): M[..., r - 1, c][None] if V is None
             else np.stack([M[..., r - 1, c], V[..., r - 1, c]]) for c in range(m)}
    for i in range(r - 2, -1, -1):
        below, level, Mi = level, {}, M[..., i, :]
        for cols in combinations(range(m), r - i):
            total = None
            for j, c in enumerate(cols):
                s = below[cols[:j] + cols[j + 1:]]
                if V is None:
                    term = Mi[..., c] * s
                else:  # (M + tV) s has one more coefficient
                    b = V[..., i, c]
                    term = np.empty((len(s) + 1,) + s.shape[1:])
                    np.multiply(Mi[..., c], s, out=term[:-1])
                    np.multiply(b, s[-1:], out=term[-1:])
                    term[1:-1] += b * s[:-1]
                if total is None:
                    total = term if len(cols) == 2 else 0.0 + term
                else:
                    total = total - term if j % 2 else total + term
            level[cols] = total
    return level


def _det(M: np.ndarray) -> np.ndarray:
    """Determinant over the trailing (p, p) axes: the full minor of ``_minors``."""
    return _minors(M)[tuple(range(M.shape[-1]))][0]


def _cholesky(G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of symmetric positive definite matrices, in place.

    ``G`` holds the matrices batch-last, (p, p, B); their factor is
    written over it, with a zero upper triangle, and G is returned.  Only
    the lower triangle is read.  The column-by-column recurrence is
    written as vector operations looped over p, each column below the
    pivot at once (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10).  A pivot that is not finite and
    positive means G is not positive definite to working precision:
    DegenerateImmersion names the first such point of ``U``.
    """
    for j in range(G.shape[0]):
        d = G[j, j]
        for k in range(j):
            d = d - G[j, k] * G[j, k]
        if d.size and not (d.min() > 0.0 and d.max() < np.inf):  # NaN fails min
            pt = np.asarray(U)[int(np.argmax(~((d > 0.0) & (d < np.inf))))]
            raise DegenerateImmersion(f"metric not positive definite at u={pt.tolist()}")
        np.sqrt(d, out=G[j, j])
        r = G[j + 1:, j]
        for k in range(j):
            r = r - G[j + 1:, k] * G[j, k]
        np.divide(r, G[j, j], out=G[j + 1:, j])
        G[j, j + 1:] = 0.0
    return G


def _lower_solve(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve C Z = S by forward substitution for the (p, p, B) factor of
    ``_cholesky``, in place: ``S`` is batch-last, (p, B) or (p, m, B), and
    Z is written over it and returned."""
    for i in range(C.shape[0]):
        r = S[i]
        for k in range(i):
            r = r - C[i, k] * S[k]
        np.divide(r, C[i, i], out=S[i])
    return S


def _upper_solve(C: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Solve C^T X = Z by back substitution for the (p, p, B) factor of
    ``_cholesky``, in place: ``Z`` is batch-last, (p, B) or (p, m, B), and
    X is written over it and returned."""
    p = C.shape[0]
    for i in range(p - 1, -1, -1):
        r = Z[i]
        for k in range(i + 1, p):
            r = r - C[k, i] * Z[k]
        np.divide(r, C[i, i], out=Z[i])
    return Z


def _cholesky_solve(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve C C^T X = S for the (p, p, B) factor of ``_cholesky``.

    ``S`` is batch-last, (p, B) or (p, m, B) for m right-hand sides, and
    so is the fresh X.  Two triangular solves as (B,)-vector operations
    looped over p, in one copy of S; no inverse is formed.
    """
    return _upper_solve(C, _lower_solve(C, np.array(S)))


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Vector orthogonal to p = q-1 vectors in q-space (Hodge dual).

    ``vectors`` has shape (..., p, q) with the vectors as rows.  The result
    X satisfies <X, y> = det[v_1 | ... | v_p | y] for every y, so the rows
    followed by X are positively oriented and |X| equals the p-volume they
    span.  Entry i is ``(-1)^(i+p)`` times the p x p minor of the rows
    without column i.  All q of them are the maximal minors of one
    ``_minors`` table over the rows, so the q expansions share their lower
    levels, and each step is one vector operation over the batch (see the
    module docstring).  X is fresh and stored batch-last.
    """
    vs = np.asarray(vectors, dtype=float)
    p, q = vs.shape[-2:]
    if q != p + 1:
        raise ValueError(f"need q = p+1 vectors, got {p} vectors in R^{q}")
    minors = _minors(vs)
    X = np.stack([minors[tuple(c for c in range(q) if c != i)][0] for i in range(q)])
    X[(p + 1) % 2::2] *= -1.0  # the entries with i + p odd
    return np.moveaxis(X, 0, -1)


def _as_batch(u: np.ndarray) -> tuple[np.ndarray, bool]:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return u[None, :], True
    return u, False


def geometry_batch(
    surface: ChartedHypersurface,
    chart_index: int,
    U: np.ndarray,
    second: bool = True,
    coefficients: tuple[float, ...] | None = None,
    ws: Workspace | None = None,
) -> GeometryBatch:
    """Evaluate chart geometry at a batch of parameter points.

    Only the chart partials are evaluated, not the position, each once.
    With ``second=True`` the second partials are read in chunks of
    ``SECOND_CHUNK`` points, and each chunk is contracted at once with the
    normal into ``second_form`` and, given a coordinate field's
    ``coefficients`` c, row by row into the p x p ``field_form`` (d2F c)^T
    J, so that no batch holds its whole (B, q, p, p) second partials, nor
    d2F c.  By the Weingarten equation ``<dN/du_a, F_b>`` is
    ``-second_form[a, b]``, so no ambient derivative of the normal is
    formed.  The metric g = J^T J is formed after the chunks, in the array
    that its Cholesky factor (``metric_chol``) then takes, and is not kept;
    its inverse is not formed.  The normal and the volume factor come from
    the generalized cross product G of the tangents (``generalized_cross``,
    one minor table): |G| equals sqrt(det g) (Cauchy-Binet), so no
    determinant of g is taken, and the rank check reads the tangent norms
    off the diagonal of g alone.  The checks run in this order, each
    naming the point: the rank check (a NaN first partial fails it), the
    metric factorization, then finite second partials; each raises
    DegenerateImmersion.

    Given a ``Workspace`` ``ws``, ``second_form`` and ``field_form`` are
    written into its buffers ``L`` and ``K`` and are valid until the next
    batch that uses ``ws``.  Without one every array is fresh.
    """
    chart = surface.charts[chart_index]
    U = np.asarray(U, dtype=float)
    sgn = float(surface.orientation_sign)

    J = _batch_last(chart.first_partials(U))  # (B, q, p)
    B, _, p = J.shape

    G = generalized_cross(np.swapaxes(J, -1, -2))  # (B, q), over the p tangent rows
    Gnorm = np.sqrt(np.sum(G * G, axis=-1))
    # product of the tangent norms, off the metric diagonal alone
    scale = np.sqrt(np.prod(np.einsum("xqa,xqa->xa", J, J), axis=-1))
    ok = Gnorm > _DEGENERACY_RTOL * scale  # a NaN partial counts as degenerate
    if not ok.all():
        pt = U[int(np.argmin(ok))]
        raise DegenerateImmersion(f"chart differential rank-deficient at u={pt.tolist()}")
    normal = np.multiply(sgn, G, out=G)  # G is not kept: sgn * G / |G| in place
    normal /= Gnorm[:, None]

    L = K = None
    if second:
        L = _empty(ws, "L", B, p, p)  # batch-last, like every form
        if coefficients is not None:
            c = np.asarray(coefficients, dtype=float)
            K = _empty(ws, "K", B, p, p)
        for s in range(0, B, SECOND_CHUNK):
            rows = slice(s, s + SECOND_CHUNK)
            H2 = _batch_last(chart.second_partials(U[rows]))
            np.einsum("xq,xqab->xab", normal[rows], H2, out=L[rows])
            if K is not None:  # (d2F c)^T J, row by row
                for a in range(p):
                    np.einsum("xq,xqb->xb", _dot_last(H2[:, :, a], c), J[rows],
                              out=K[rows, a])
            del H2  # before the next chunk is read

    # formed and factored after the chunks are read, so that neither adds
    # to their memory; the checks keep their order
    chol = np.empty((p, p, B))
    np.einsum("xqa,xqb->xab", J, J, out=chol.transpose(2, 0, 1))  # the metric g
    _cholesky(chol, U)
    if second and not np.isfinite(L).all():  # one flat pass; per point only to name it
        pt = U[int(np.argmin(np.isfinite(L).all(axis=(-2, -1))))]
        raise DegenerateImmersion(f"second partials not finite at u={pt.tolist()}")

    return GeometryBatch(J, chol, Gnorm, normal, L, K)


def tangent_coefficients(geo: GeometryBatch, X: np.ndarray) -> np.ndarray:
    """Chart-basis coefficients of tangent directions.

    ``X`` has shape (B, m, q); returns the batch-last c of shape (B, p, m)
    solving J c = X^T in the least-squares sense, that is g c = J^T X^T,
    by ``_cholesky_solve`` with the block's metric factor (exact for
    tangent X).
    """
    S = np.ascontiguousarray(np.einsum("xqa,xmq->amx", geo.jacobian, X))  # (p, m, B)
    return _cholesky_solve(geo.metric_chol, S).transpose(2, 0, 1)


def _congruence(C: np.ndarray, M: np.ndarray) -> np.ndarray:
    """C^T M C for (B, p, m) C and (B, p, p) M, as two einsums."""
    return np.einsum("xam,xan->xmn", C, np.einsum("xab,xbn->xan", M, C))


def _asymmetry(M: np.ndarray) -> np.ndarray:
    """Max-entry norm of M - M^T for (B, p, p) M, as (B,)-vector maxima.

    A max over the small trailing axes runs a slow inner loop per point;
    the p (p - 1) / 2 off-diagonal pairs take a few vector operations.
    """
    asym = np.zeros(M.shape[0])
    for i, j in combinations(range(M.shape[-1]), 2):
        asym = np.maximum(asym, np.abs(M[:, i, j] - M[:, j, i]))
    return asym


def _symmetrized(h_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric part of (B, p, p) matrices and the max-entry asymmetry."""
    return 0.5 * (h_raw + np.swapaxes(h_raw, -1, -2)), _asymmetry(h_raw)


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

    ``frame`` is (p, q), rows orthonormal and tangent within 1e-10, else
    ``FrameNotOrthonormal``.  With C the chart coordinates of the rows as
    columns, h is ``C^T (-L) C`` for the chart-basis form
    ``L = <N, d2F/du_a du_b>`` (the Weingarten equation).  The returned
    matrix is explicitly symmetrized; pass ``return_asymmetry`` to also
    obtain the max-entry asymmetry of the raw matrix.
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
    if np.max(np.abs(E[0] @ geo.normal[0])) > _FRAME_ORTHO_TOL:
        raise FrameNotOrthonormal(
            "frame fails tangency tolerance 1e-10: a row has a normal component")
    C = tangent_coefficients(geo, E)
    h, asym = _symmetrized(_congruence(C, -geo.second_form))
    if return_asymmetry:
        return h[0], float(asym[0])
    return h[0]


def _shape_det(geo: GeometryBatch) -> np.ndarray:
    """det h = det(-L) / det g of a block, frame-free.

    By the Weingarten equation <dN/du_a, dF/du_b> = -<N, d2F/du_a du_b> =
    -L, so this is the determinant of the normal-map differential, and of
    h in any orthonormal frame; det g is the squared volume factor.  It is
    the eta pass's eta_0 bit for bit.
    """
    vf = geo.volume_factor
    return _det(-geo.second_form) / (vf * vf)


def shape_determinant_batch(
    surface: ChartedHypersurface, chart_index: int, U: np.ndarray,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_shape_det`` at a batch of points, and the volume factor; ``ws``
    as for ``geometry_batch``."""
    geo = geometry_batch(surface, chart_index, U, second=True, ws=ws)
    return _shape_det(geo), geo.volume_factor
