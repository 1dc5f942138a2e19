"""Integration over a hypersurface via tensor-product chart grids.

Periodic coordinates use the midpoint-shifted uniform rule, which is
spectrally accurate for smooth periodic integrands; non-periodic
coordinates use composite Gauss-Legendre panels of (at most) 16 nodes.
Grid nodes never touch the chart domain boundary, so coordinate
degeneracies on the boundary are avoided.

Point evaluations are independent and may be dispatched to a thread
pool.  Every pass over a grid runs one block kernel that returns values
to integrate and per-point peaks.  Work is split into fixed-size index
blocks that do not depend on the worker count; each block's values are
summed exactly (fsum) and the block sums combined by a fixed-shape
pairwise tree with compensated nodes, while peaks are reduced by max,
which does not depend on order.  The module guarantee is: same inputs
give bit-identical results for any number of workers, with total
summation error at the few-ulp level.

Each integration also runs its half-resolution companion grid; the
difference is reported as the estimated error.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._reduction import tree_reduce_compensated
from .errors import CurvintError
from .fields import TangentField, chart_forms_batch
from .fields import shape_data_batch  # noqa: F401  perfbench's tracer wraps it here
from .invariants import ColumnSystem, eta_all
from .manifold import ChartedHypersurface, geometry_batch

BLOCK = 4096  # points per work unit; fixed so results never depend on workers

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


def _gauss_rule(lo: float, hi: float, count: int) -> CoordinateRule:
    """Composite Gauss-Legendre: ceil(count/16) panels, larger panels first."""
    n_panels = -(-count // _GL_PANEL)
    base, rem = divmod(count, n_panels)
    sizes = [base + 1] * rem + [base] * (n_panels - rem)
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for i, size in enumerate(sizes):
        x, w = np.polynomial.legendre.leggauss(size)
        a, b = edges[i], edges[i + 1]
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return CoordinateRule(np.concatenate(nodes), np.concatenate(weights), False)


@dataclass(frozen=True)
class ChartGrid:
    rules: tuple[CoordinateRule, ...]
    points: np.ndarray   # (N, p) tensor-product nodes, C order
    weights: np.ndarray  # (N,)


def _build_chart_grid(chart, counts) -> ChartGrid:
    rules = []
    for lo, hi, per, c in zip(chart.lo, chart.hi, chart.periodic, counts):
        rule = _periodic_rule(lo, hi, c) if per else _gauss_rule(lo, hi, c)
        rules.append(rule)
    mesh = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[r.weights for r in rules], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wmesh:
        weights = weights * w.reshape(-1)
    return ChartGrid(tuple(rules), points, weights)


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
        return sum(cg.points.shape[0] for cg in self.charts)


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


def _run_blocks(tasks, worker, workers):
    # one task gains nothing from a pool and would pay for starting it
    if workers is not None and workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(worker, tasks))
    return [worker(t) for t in tasks]


def _integrate_vector(surface, func, grid, workers):
    """Sums and maxima of one pass over the grid.

    ``func(ci, U)`` returns the (B, m) values, the (B,) volume factor of
    the geometry it evaluated and (B, j) peaks.  Values are weighted by
    volume factor and quadrature weight, summed exactly per fixed-size
    block and the blocks combined by a pairwise tree; peaks are reduced by
    max.  Returns the (m,) sums and the (j,) maxima, whose bits do not
    depend on the worker count.
    """
    _check_grid(surface, grid)
    tasks = [(ci, start) for ci, cg in enumerate(grid.charts)
             for start in range(0, cg.points.shape[0], BLOCK)]

    def worker(task):
        ci, start = task
        cg = grid.charts[ci]
        try:
            vals, volf, peaks = func(ci, cg.points[start:start + BLOCK])
        except CurvintError as exc:
            raise type(exc)(f"chart {ci}: {exc}") from exc
        wf = surface.charts[ci].weight_fraction
        terms = vals * (wf * cg.weights[start:start + BLOCK] * volf)[:, None]
        # exactly rounded per-block partial: immune to term ordering
        sums = np.array([math.fsum(col.tolist()) for col in terms.T])
        return sums, np.max(peaks, axis=0)

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
        chart parameter points; the induced volume form is applied by the
        engine.
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
    def vec(ci, U):
        vals = np.asarray(integrand(ci, U), dtype=float)[:, None]
        geo = geometry_batch(surface, ci, U, second=False)
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
    def func(ci, U):
        h, dv, det_g, volume_factor = chart_forms_batch(surface, field, ci, U)
        vals = eta_all(ColumnSystem(H=h, V=dv)).values / det_g[:, None]
        ones = np.ones((vals.shape[0], 1))
        return (np.concatenate([ones, vals], axis=1), volume_factor,
                np.empty((vals.shape[0], 0)))

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
