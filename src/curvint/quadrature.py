"""Integration over a hypersurface via tensor-product chart grids.

Periodic coordinates use the midpoint-shifted uniform rule, which is
spectrally accurate for smooth periodic integrands; non-periodic
coordinates use composite Gauss-Legendre panels of (at most) 16 nodes,
whose rules are computed once per panel size and cached read-only.
Grid nodes never touch the chart domain boundary, so coordinate
degeneracies on the boundary are avoided.

Point evaluations are independent and may be dispatched to a thread
pool.  Every pass over a grid runs one kernel that returns values to
integrate and per-point peaks.  The kernel is called once per block of
``BLOCK`` = 8192 points at every worker count, so that each call makes
long vector operations and pool threads meet at the interpreter lock
less often.  Each task takes a ``Workspace`` from a free list
(``_workspace``) and gives it back after its block, while the list holds
fewer than ``default_workers()``; the engine's kernels write their
largest per-block arrays into it (see ``_integrate_vector``), so a block
does not free memory that the next one allocates again.  The nodes and
weights of a block are gathered from the per-axis rules when it runs;
the whole grid is never built.  The weighted values of every block are
summed exactly rounded (``_reduction.exact_row_sums``: error-free vector
extraction in numpy, the same bits as ``math.fsum`` without holding the
GIL over the data; an exactly rounded sum is unique) and the block sums
combined by a fixed-shape pairwise tree with compensated nodes, while
peaks are reduced by max, which does not depend on order.  The block
size is fixed, since it shapes the tree: another size moves the sums in
their last digits.  The module guarantee is: same inputs give
bit-identical results for any number of workers, with total summation
error at the few-ulp level.

Each integration also runs its half-resolution companion grid; the
difference is reported as the estimated error.
"""

import contextlib
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._reduction import exact_row_sums, tree_reduce_compensated
from .errors import CurvintError
from .fields import TangentField, chart_forms_batch
from .fields import shape_data_batch  # noqa: F401  perfbench's tracer wraps it here
from .invariants import ColumnSystem, eta_all
from .manifold import ChartedHypersurface, Workspace, geometry_batch

BLOCK = 8192  # points per kernel call and exact sum; fixed, as it shapes the sum tree

# Workspaces of finished tasks, for the next task to reuse: never more than
# the default worker count (``_workspace``).
_FREE: list[Workspace] = []
_FREE_LOCK = threading.Lock()

_GL_PANEL = 16


@dataclass(frozen=True)
class CoordinateRule:
    """Nodes and weights for one chart coordinate."""

    nodes: np.ndarray
    weights: np.ndarray
    periodic: bool


def _periodic_rule(lo: float, hi: float, count: int) -> CoordinateRule:
    length = hi - lo
    nodes = lo + (np.arange(count) + 0.5) * (length / count)
    weights = np.full(count, length / count)
    return CoordinateRule(nodes, weights, True)


@functools.cache
def _legendre(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached."""
    x, w = np.polynomial.legendre.leggauss(size)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_rule(lo: float, hi: float, count: int) -> CoordinateRule:
    """Composite Gauss-Legendre: ceil(count/16) panels, larger panels first."""
    n_panels = -(-count // _GL_PANEL)
    base, rem = divmod(count, n_panels)
    sizes = [base + 1] * rem + [base] * (n_panels - rem)
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for i, size in enumerate(sizes):
        x, w = _legendre(size)
        a, b = edges[i], edges[i + 1]
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return CoordinateRule(np.concatenate(nodes), np.concatenate(weights), False)


@dataclass(frozen=True)
class ChartGrid:
    """Per-axis rules of one chart's tensor-product grid, of ``size`` points.

    The passes gather nodes and weights per run of points (``span``);
    ``points`` and ``weights`` build the whole grid, for inspection.
    """

    rules: tuple[CoordinateRule, ...]
    size: int

    def span(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (m, p) and weights (m,) of the points start..stop in C order.

        The weights multiply in axis order, ((w0 * w1) * w2) ...: the order
        fixes their bits.
        """
        idx = np.unravel_index(np.arange(start, min(stop, self.size)),
                               tuple(len(r.nodes) for r in self.rules))
        points = np.empty((len(idx[0]), len(self.rules)))
        for a, (r, i) in enumerate(zip(self.rules, idx)):
            points[:, a] = r.nodes[i]
        weights = self.rules[0].weights[idx[0]]
        for r, i in zip(self.rules[1:], idx[1:]):
            weights = weights * r.weights[i]
        return points, weights

    @property
    def points(self) -> np.ndarray:
        """All (size, p) nodes at once."""
        return self.span(0, self.size)[0]

    @property
    def weights(self) -> np.ndarray:
        """All (size,) weights at once."""
        return self.span(0, self.size)[1]


def _build_chart_grid(chart, counts) -> ChartGrid:
    rules = tuple(_periodic_rule(lo, hi, c) if per else _gauss_rule(lo, hi, c)
                  for lo, hi, per, c in zip(chart.lo, chart.hi, chart.periodic, counts))
    size = math.prod(len(r.nodes) for r in rules)
    # the passes gather nodes per block, but a grid whose (N, p) node array
    # numpy cannot allocate is refused as before (MemoryError, ValueError);
    # np.empty only reserves that memory
    np.empty((size, len(rules)))
    return ChartGrid(rules, size)


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature data for every chart of a surface.

    ``counts`` is the per-coordinate node count, shared by all charts.
    """

    surface_key: str
    counts: tuple[int, ...]
    charts: tuple[ChartGrid, ...]
    domains: tuple[tuple[tuple[float, float], ...], ...]

    @classmethod
    def build(cls, surface: ChartedHypersurface, counts) -> "QuadratureGrid":
        if np.isscalar(counts):
            counts = (int(counts),) * surface.dim
        counts = tuple(int(c) for c in counts)
        if len(counts) != surface.dim:
            raise ValueError(
                f"grid needs {surface.dim} node counts, got {len(counts)}"
            )
        if any(c < 2 for c in counts):
            raise ValueError("node counts must be >= 2")
        charts = tuple(_build_chart_grid(ch, counts) for ch in surface.charts)
        domains = tuple(
            tuple(zip(ch.lo, ch.hi)) for ch in surface.charts
        )
        return cls(surface.metadata.key, counts, charts, domains)

    def half(self, surface: ChartedHypersurface) -> "QuadratureGrid":
        return QuadratureGrid.build(
            surface, tuple(max(2, c // 2) for c in self.counts)
        )

    @property
    def total_points(self) -> int:
        return sum(cg.size for cg in self.charts)


@dataclass(frozen=True)
class IntegralResult:
    """One integral with its half-resolution error estimate."""

    value: float
    nodes: int
    estimated_error: float


def _check_grid(surface: ChartedHypersurface, grid: QuadratureGrid):
    if len(grid.charts) != len(surface.charts):
        raise ValueError("grid was built for a different atlas")
    for cg, ch in zip(grid.domains, surface.charts):
        if cg != tuple(zip(ch.lo, ch.hi)):
            raise ValueError("grid domains do not match the surface charts")


def default_workers() -> int:
    """The default worker count: the CPUs this process may run on, not all
    the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(tasks, worker, workers):
    # one task gains nothing from a pool and would pay for starting it
    if workers is not None and workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(worker, tasks))
    return [worker(t) for t in tasks]


@contextlib.contextmanager
def _workspace():
    """A workspace from the free list, or a new one; put back after use
    only while the list holds fewer than ``default_workers()``."""
    with _FREE_LOCK:
        ws = _FREE.pop() if _FREE else Workspace(BLOCK)
    try:
        yield ws
    finally:
        keep = default_workers()
        with _FREE_LOCK:
            if len(_FREE) < keep:
                _FREE.append(ws)


def _integrate_vector(surface, func, grid, workers):
    """Sums and maxima of one pass over the grid.

    ``func(ci, U, ws)`` returns the (B, m) values, the (B,) volume factor
    of the geometry it evaluated and (B, j) peaks.  It is called once per
    block of BLOCK points, whatever the worker count, with the task's
    ``Workspace`` ``ws``, which it passes to the engine's kernels only
    (``geometry_batch``, ``chart_forms_batch``), never to a user's
    callable.  They keep in it the second form, d2F c and K: 2 p^2 + p q
    float64 per point, 30 for p = 3, that is about 2.0 MB per worker for
    a BLOCK-point workspace.  Values are weighted by volume factor and
    quadrature weight, each row of a block summed exactly rounded, and the
    blocks combined by a pairwise tree; peaks are reduced by max.
    A ``CurvintError`` gets the prefix ``chart {ci}:``; the error raised is
    that of the first failing block.  Returns the (m,) sums and the (j,)
    maxima, whose bits do not depend on the worker count.
    """
    _check_grid(surface, grid)
    tasks = [(ci, start) for ci, cg in enumerate(grid.charts)
             for start in range(0, cg.size, BLOCK)]

    def worker(task):
        ci, start = task
        U, weights = grid.charts[ci].span(start, start + BLOCK)
        with _workspace() as ws:
            try:
                vals, volf, peaks = func(ci, U, ws)
            except CurvintError as exc:
                raise type(exc)(f"chart {ci}: {exc}") from exc
            wf = surface.charts[ci].weight_fraction
            terms = np.multiply(vals.T, wf * weights * volf, order="C")  # (m, B)
            return exact_row_sums(terms), np.max(peaks, axis=0)

    parts = _run_blocks(tasks, worker, workers)
    sums = np.atleast_1d(tree_reduce_compensated([s for s, _ in parts]))
    return sums, np.max([p for _, p in parts], axis=0)


def integrate(
    surface: ChartedHypersurface,
    integrand,
    grid: QuadratureGrid,
    workers: int | None = None,
) -> IntegralResult:
    """Integrate a pointwise scalar over the surface.

    Parameters
    ----------
    integrand : callable
        Batched contract ``integrand(chart_index, U) -> (B,)`` evaluated at
        chart parameter points, in batches of up to ``BLOCK`` = 8192
        points, each called once; the induced volume form is applied by
        the engine.
    grid : QuadratureGrid
        Built for this surface via ``QuadratureGrid.build``.
    workers : int, optional
        Thread count for block dispatch; the result bits do not depend on
        it.

    Returns
    -------
    IntegralResult
        Integral value, node count and the half-resolution error estimate.
    """
    def vec(ci, U, ws):
        vals = np.asarray(integrand(ci, U), dtype=float)[:, None]
        geo = geometry_batch(surface, ci, U, second=False, ws=ws)
        return vals, geo.volume_factor, np.empty((len(U), 0))

    (value,), _ = _integrate_vector(surface, vec, grid, workers)
    (half,), _ = _integrate_vector(surface, vec, grid.half(surface), workers)
    return IntegralResult(
        value=float(value),
        nodes=grid.total_points,
        estimated_error=float(abs(value - half)),
    )


def _select_ks(n: int, k) -> list[int]:
    """Sorted invariant indices from "all" or an iterable inside [0, n]."""
    if k == "all":
        return list(range(n + 1))
    ks = sorted(set(int(i) for i in k))
    if any(i < 0 or i > n for i in ks):
        raise ValueError(f"k selection outside [0, {n}]")
    return ks


def _eta_integrals(surface, field, grid, workers):
    """Full- and half-grid integrals of (1, eta_0, ..., eta_n).

    Column 0 is the surface volume, column 1 + k the eta_k integral.  The
    eta_k come from the chart-basis forms, with no adapted frame.
    """
    def func(ci, U, ws):
        h, dv, det_g, volume_factor = chart_forms_batch(surface, field, ci, U, ws=ws)
        eta = eta_all(ColumnSystem(H=h, V=dv)).values
        vals = np.empty((1 + eta.shape[1], len(U)))  # batch-last, like eta
        vals[0] = 1.0
        np.divide(eta.T, det_g, out=vals[1:])
        return vals.T, volume_factor, np.empty((len(U), 0))

    return (_integrate_vector(surface, func, grid, workers)[0],
            _integrate_vector(surface, func, grid.half(surface), workers)[0])


def integrate_eta(
    surface: ChartedHypersurface,
    field: TangentField,
    grid: QuadratureGrid,
    k="all",
    workers: int | None = None,
) -> dict[int, IntegralResult]:
    """Integrals of the mixed invariants over the surface, one pass.

    ``k`` is "all" or an iterable of indices in [0, n].  Every invariant is
    computed per point in the same pass; the returned dict maps k to its
    IntegralResult.
    """
    ks = _select_ks(surface.n_intrinsic, k)
    values, halves = _eta_integrals(surface, field, grid, workers)
    return {
        i: IntegralResult(
            value=float(values[1 + i]),
            nodes=grid.total_points,
            estimated_error=float(abs(values[1 + i] - halves[1 + i])),
        )
        for i in ks
    }
