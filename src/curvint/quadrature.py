"""Integration over a hypersurface via tensor-product chart grids.

Periodic coordinates use the midpoint-shifted uniform rule, which is
spectrally accurate for smooth periodic integrands; non-periodic
coordinates use composite Gauss-Legendre panels of (at most) 16 nodes,
whose rules are computed once per panel size and cached read-only.
Grid nodes never touch the chart domain boundary, so coordinate
degeneracies on the boundary are avoided.

Point evaluations are independent and may be dispatched to other
processes.  Every pass over a grid runs one kernel that returns values to
integrate and per-point peaks.  The kernel is called once per block of
``BLOCK`` = 8192 points at every worker count, so that each call makes
long vector operations.  The blocks of a grid and of its half-resolution
companion go out as one task list (``_integrate_grids``); above
``FORK_POINTS`` points, ``_run_blocks`` shares it out among processes,
each of which sends back only the sums and peaks of its blocks.  A pass
of an engine kernel (eta, degree or foliation) over a catalog surface,
with no field or a coordinate field, is plain data (``_spec``): it goes
to worker processes that the first such dispatch forks and that then
wait for the next, until the host process ends (``_Worker``), so no later
pass forks or takes copy-on-write faults.  Every other pass, such as
``integrate``'s over a user integrand, forks children for its dispatch,
since only a fork shows them the user's callables and the state those
read.  Threads would meet at the interpreter lock at every numpy call,
and two of them ran the block kernel hardly faster than one.  Each thread
keeps one ``Workspace`` (``_workspace``), which forked processes inherit;
the engine's kernels write their largest per-block arrays into it, so a
block does not free memory that the next one allocates again.  The nodes and
weights of a block are gathered from the per-axis rules when it runs;
the whole grid is never built.  The weighted values of every block are
summed exactly rounded (``_reduction.exact_row_sums``: error-free vector
extraction in numpy, the same bits as ``math.fsum`` at about a sixth of
its time, since fsum makes a Python float of every term; an exactly
rounded sum is unique) and the block sums
combined by a fixed-shape pairwise tree with compensated nodes, while
peaks are reduced by max, which does not depend on order.  The block
size is fixed, since it shapes the tree: another size moves the sums in
their last digits.  The module guarantee is: same inputs give
bit-identical results for any number of workers, with total summation
error at the few-ulp level.

Each integration also runs its half-resolution companion grid; the
difference is reported as the estimated error.
"""

import atexit
import contextlib
import functools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import catalog
from ._reduction import exact_row_sums, tree_reduce_compensated
from .errors import CurvintError
from .fields import TangentField, chart_forms_batch
from .fields import shape_data_batch  # noqa: F401  perfbench's tracer wraps it here
from .invariants import ColumnSystem, eta_all
from .manifold import ChartedHypersurface, Workspace, geometry_batch

BLOCK = 8192  # points per kernel call and exact sum; fixed, as it shapes the sum tree

# Points of one dispatch above which its blocks go to other processes,
# worker processes or children forked for it: the crossover of forked
# children, measured on sphere3 eta passes (CHANGES.md).  Below it, the
# fork and the copy-on-write faults that it brings on in both processes
# cost more than the second process gains.
FORK_POINTS = 7 * BLOCK // 2

_LOCAL = threading.local()  # each thread's workspace; a forked child inherits it

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


def _chart_rules(chart, counts) -> tuple[CoordinateRule, ...]:
    return tuple(_periodic_rule(lo, hi, c) if per else _gauss_rule(lo, hi, c)
                 for lo, hi, per, c in zip(chart.lo, chart.hi, chart.periodic, counts))


def _build_chart_grid(chart, counts) -> ChartGrid:
    rules = _chart_rules(chart, counts)
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


def _share(tasks, worker) -> list:
    """``worker(t)`` for the tasks in order, up to the first that raises."""
    out = []
    for task in tasks:
        try:
            out.append(worker(task))
        except Exception:  # _run_blocks runs the task again, to raise it
            break
    return out


def _send(fd, obj):
    """Write ``obj`` pickled to ``fd``, after its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The next object that ``_send`` wrote to ``fd``; EOFError when the
    writer closed it or died before the whole object was sent."""
    def read(size):
        buf = bytearray()
        while len(buf) < size:
            chunk = os.read(fd, size - len(buf))
            if not chunk:
                raise EOFError
            buf += chunk
        return buf
    return pickle.loads(read(int.from_bytes(read(8), "little")))


class _Process:
    """A forked process that calls ``child(*ends)`` and leaves by
    ``os._exit``, printing nothing, and this process's ends of its pipes.
    ``writes`` has one flag per pipe, True where this process writes; the
    last pipe carries the results."""

    def __init__(self, child, writes):
        pipes = [os.pipe() for _ in writes]
        self.fds = [w if out else r for (r, w), out in zip(pipes, writes)]
        theirs = [r if out else w for (r, w), out in zip(pipes, writes)]
        try:
            self.pid = os.fork()
        except OSError:
            for fd in self.fds + theirs:
                os.close(fd)
            raise
        if self.pid == 0:  # the child: it never returns from here
            code = 1
            try:
                for fd in self.fds:
                    os.close(fd)
                child(*theirs)
                code = 0
            finally:
                os._exit(code)
        for fd in theirs:
            os.close(fd)

    def finish(self) -> list:
        """The results of the share it was given (``_receive``)."""
        return _receive(self.fds[-1])

    def kill(self):
        """Close the pipes, then kill and reap the process, once."""
        for fd in self.fds:
            with contextlib.suppress(OSError):
                os.close(fd)
        pid, self.pid, self.fds = self.pid, None, ()
        if pid is not None:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _Child(_Process):
    """A process forked for one share of one dispatch: it runs
    ``_share(tasks, worker)``, sends the results and exits."""

    def __init__(self, tasks, worker):
        super().__init__(lambda out: _send(out, _share(tasks, worker)), (False,))

    def finish(self) -> list:
        try:
            return super().finish()
        finally:
            self.kill()  # it has sent all it will, or died


class _Worker(_Process):
    """A worker process: forked by the first dispatch that needs it, it
    runs the shares of every later pass given by a pass spec, until EOF
    on its request pipe, ``_stop_workers`` or the end of this process."""

    def __init__(self):
        super().__init__(_serve, (True, False))

    def start(self, spec: bytes, tasks) -> "_Worker":
        _send(self.fds[0], (spec, tasks))
        return self


_WORKERS: list[_Worker] = []  # this process's workers, in share order
_KEEP = 8  # passes a worker keeps made, for the latest specs it was sent


def _serve(requests, replies):
    """A worker's loop: for each ``(spec, tasks)`` request, the block
    worker of the spec (kept for the last ``_KEEP`` specs, keyed by their
    bytes) runs ``_share`` over the tasks, and the results go back.

    It first closes every file it inherited but its two pipes and the
    standard streams: a pipe, file or socket that the host closes later
    is then closed for good, and a reader of it sees EOF."""
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
    kept = {}
    while True:
        try:
            spec, tasks = _receive(requests)
        except EOFError:
            return
        worker = kept.pop(spec, None) or _rebuild(pickle.loads(spec))
        kept[spec] = worker
        if len(kept) > _KEEP:
            del kept[next(iter(kept))]
        _send(replies, _share(tasks, worker))


def _worker(i: int) -> _Worker:
    """Worker ``i``, forked now if it does not exist yet."""
    while len(_WORKERS) <= i:
        _WORKERS.append(_Worker())
    return _WORKERS[i]


def _stop_workers():
    """Kill and reap every worker; a later dispatch forks them again."""
    while _WORKERS:
        _WORKERS.pop().kill()


def _forget_workers():
    """In a forked process: close the inherited pipes of the parent's
    workers, so that it never writes to them and they still see EOF when
    the parent goes, and forget those workers."""
    for w in _WORKERS:
        for fd in w.fds:
            os.close(fd)
    _WORKERS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(_stop_workers)


def _run_blocks(tasks, worker, workers):
    """``[worker(t) for t in tasks]``, on up to ``workers`` processes.

    With ``procs = min(workers, len(tasks), default_workers())`` above 1,
    this process runs the tasks ``0::procs`` and each of ``procs - 1``
    other processes the tasks ``k::procs``, sending back only its results
    through a pipe.  A worker that carries a pass spec (``worker.spec``,
    from ``_integrate_grids``) sends the tasks to the worker processes
    (``_Worker``), which make the pass again from the spec; any other
    forks a child per share for this dispatch (``_Child``), which
    inherits ``worker`` and the state it reads.  Each share stops at its
    first failing task.  Once every share is in, the tasks left without a
    result run here in task order, so the first failing task raises its
    own error, as with one worker; a share whose process could not start
    or died is computed here too.  Such a loss, and anything raised before
    the shares are in (a ``KeyboardInterrupt``, say), kills and reaps the
    processes of this dispatch, the worker processes among them.  Tasks
    run inline where there is no ``os.fork`` or another thread is alive:
    a forked process would inherit only the forking thread, and maybe a
    lock that another one held.
    """
    procs = min(workers or 1, len(tasks), default_workers())
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [worker(t) for t in tasks]
    spec = getattr(worker, "spec", None)
    started, shares, lost = {}, {}, False
    try:
        for k in range(1, procs):
            try:
                started[k] = (_Child(tasks[k::procs], worker) if spec is None
                              else _worker(k - 1).start(spec, tasks[k::procs]))
            except OSError:  # no process for share k: it runs below
                lost = True
        shares[0] = _share(tasks[0::procs], worker)
        for k in list(started):
            try:
                shares[k] = started[k].finish()
            except (EOFError, OSError):  # the process died: its share runs below
                lost = True
            del started[k]
    except BaseException:
        for proc in started.values():
            proc.kill()
        if spec is not None:
            _stop_workers()
        raise
    if lost and spec is not None:
        _stop_workers()
    parts = [None] * len(tasks)
    for k, results in shares.items():
        for i, part in zip(range(k, len(tasks), procs), results):
            parts[i] = part
    return [worker(t) if part is None else part for t, part in zip(tasks, parts)]


@contextlib.contextmanager
def _workspace():
    """The calling thread's workspace, made on first use.  While a block
    holds it, a pass that the block's user callable runs makes its own."""
    ws = getattr(_LOCAL, "ws", None) or Workspace(BLOCK)
    _LOCAL.ws = None
    try:
        yield ws
    finally:
        _LOCAL.ws = ws


class _Kernel(NamedTuple):
    """The engine block kernel ``_KERNELS[name]`` bound to the surface and
    the field of a pass: ``func(ci, U, ws)`` for ``_integrate_grids``."""

    name: str
    surface: ChartedHypersurface
    field: TangentField | None = None

    def __call__(self, ci, U, ws):
        return _KERNELS[self.name](self.surface, self.field, ci, U, ws)


_KERNELS = {}  # name -> engine block kernel(surface, field, ci, U, ws)


def _kernel(name: str):
    """Register an engine block kernel under ``name``, which specs carry."""
    def register(kernel):
        _KERNELS[name] = kernel
        return kernel
    return register


class _Spec(NamedTuple):
    """A pass as plain data, from which a worker process makes it again."""

    kernel: str                               # a name in _KERNELS
    surface: str                              # a catalog key
    coefficients: tuple[float, ...] | None    # the field's, if any
    field_key: str
    counts: tuple[tuple[int, ...], ...]       # node counts of each grid


def _spec(surface, func, grids) -> bytes | None:
    """The pickled ``_Spec`` of a pass, or None unless every part of it
    can be made again from plain data: an engine kernel (``_Kernel``); the
    catalog's own surface object (``catalog._key_of``); no field, or one
    with coefficients, which the passes read off the geometry without
    calling its callables; and grids with the rules ``QuadratureGrid.build``
    makes of their counts.  A user's callables, and the state they read,
    reach another process only through a fork at the dispatch."""
    key = catalog._key_of(surface)
    if (not isinstance(func, _Kernel) or key is None
            or (func.field is not None and func.field.coefficients is None)):
        return None
    if not all(_as_built(grid, surface) for grid in grids):
        return None
    field = func.field
    return pickle.dumps(_Spec(
        func.name, key, None if field is None else field.coefficients,
        "" if field is None else field.key, tuple(g.counts for g in grids)))


def _as_built(grid, surface) -> bool:
    """Whether each chart grid has the rules and size that
    ``QuadratureGrid.build`` makes of the grid's counts."""
    for cg, chart in zip(grid.charts, surface.charts):
        rules = _chart_rules(chart, grid.counts)
        if len(cg.rules) != len(rules) or cg.size != math.prod(len(r.nodes) for r in rules):
            return False
        if not all(a.periodic == b.periodic and np.array_equal(a.nodes, b.nodes)
                   and np.array_equal(a.weights, b.weights) for a, b in zip(cg.rules, rules)):
            return False
    return True


def _rebuild(spec: _Spec):
    """The block worker of a pass spec (``_blocks``), in a worker process.
    The field is given its coefficients only: no pass calls its callables."""
    surface = catalog._surface(spec.surface)
    field = None if spec.coefficients is None else TangentField(
        None, key=spec.field_key, coefficients=spec.coefficients)
    grids = tuple(QuadratureGrid.build(surface, c) for c in spec.counts)
    return _blocks(surface, _Kernel(spec.kernel, surface, field), grids)[1]


def _blocks(surface, func, grids):
    """The tasks ``(grid, chart, start)`` of a pass over ``grids``, and the
    worker that returns a task's exactly rounded row sums and its peaks."""
    tasks = [(g, ci, start) for g, grid in enumerate(grids)
             for ci, cg in enumerate(grid.charts) for start in range(0, cg.size, BLOCK)]

    def worker(task):
        g, ci, start = task
        U, weights = grids[g].charts[ci].span(start, start + BLOCK)
        with _workspace() as ws:
            try:
                vals, volf, peaks = func(ci, U, ws)
            except CurvintError as exc:
                raise type(exc)(f"chart {ci}: {exc}") from exc
            wf = surface.charts[ci].weight_fraction
            terms = np.multiply(vals.T, wf * weights * volf, order="C")  # (m, B)
            return exact_row_sums(terms), np.max(peaks, axis=0)

    return tasks, worker


def _integrate_grids(surface, func, grids, workers):
    """Sums and maxima of one pass over each grid, in one dispatch.

    ``func(ci, U, ws)`` returns the (B, m) values, the (B,) volume factor
    of the geometry it evaluated and (B, j) peaks.  It is called once per
    block of BLOCK points, whatever the worker count, with the calling
    thread's ``Workspace`` ``ws``, which it passes to the engine's kernels
    only (``geometry_batch``, ``chart_forms_batch``), never to a user's
    callable.  They keep in it the second form and the field form K: 2 p^2
    float64 per point, 18 for p = 3, that is about 1.2 MB per process for
    a BLOCK-point workspace.  Values are weighted by volume factor and
    quadrature weight, each row of a block summed exactly rounded, and the
    blocks of each grid combined by a pairwise tree; peaks are reduced by
    max.  The blocks of all grids are one task list for ``_run_blocks``,
    on ``workers`` processes when the grids hold more than ``FORK_POINTS``
    points together, else inline.  Such a pass goes to the worker
    processes as its spec (``_spec``) when it has one, and to children
    forked for it when not.  A ``CurvintError`` gets the prefix ``chart
    {ci}:``; the error raised is that of the first failing block.
    Returns the (m,) sums and the (j,) maxima of each grid, whose bits do
    not depend on the worker count or the route.
    """
    for grid in grids:
        _check_grid(surface, grid)
    tasks, worker = _blocks(surface, func, grids)
    points = sum(grid.total_points for grid in grids)
    if points > FORK_POINTS:
        worker.spec = _spec(surface, func, grids)
    parts = _run_blocks(tasks, worker, workers if points > FORK_POINTS else 1)
    out = []
    for g in range(len(grids)):
        mine = [part for task, part in zip(tasks, parts) if task[0] == g]
        out.append((np.atleast_1d(tree_reduce_compensated([s for s, _ in mine])),
                    np.max([p for _, p in mine], axis=0)))
    return out


def _integrate_vector(surface, func, grid, workers):
    """The (m,) sums and (j,) maxima of one pass over one grid
    (``_integrate_grids``)."""
    return _integrate_grids(surface, func, (grid,), workers)[0]


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
        Process count for block dispatch; the result bits do not depend
        on it.  Above ``FORK_POINTS`` points, some batches then run in
        children forked for the pass, whose side effects the caller does
        not see, and the first failing batch runs once more in the
        calling process.  The integrand is the caller's code, so this
        pass never goes to the persistent worker processes.

    Returns
    -------
    IntegralResult
        Integral value, node count and the half-resolution error estimate.
    """
    def vec(ci, U, ws):
        vals = np.asarray(integrand(ci, U), dtype=float)[:, None]
        geo = geometry_batch(surface, ci, U, second=False, ws=ws)
        return vals, geo.volume_factor, np.empty((len(U), 0))

    ((value,), _), ((half,), _) = _integrate_grids(
        surface, vec, (grid, grid.half(surface)), workers)
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


@_kernel("eta")
def _eta_kernel(surface, field, ci, U, ws):
    """Block kernel of ``_eta_integrals``: (1, eta_0, ..., eta_n) per point."""
    h, dv, det_g, volume_factor = chart_forms_batch(surface, field, ci, U, ws=ws)
    eta = eta_all(ColumnSystem(H=h, V=dv)).values
    vals = np.empty((1 + eta.shape[1], len(U)))  # batch-last, like eta
    vals[0] = 1.0
    np.divide(eta.T, det_g, out=vals[1:])
    return vals.T, volume_factor, np.empty((len(U), 0))


def _eta_integrals(surface, field, grid, workers):
    """Full- and half-grid integrals of (1, eta_0, ..., eta_n).

    Column 0 is the surface volume, column 1 + k the eta_k integral.  The
    eta_k come from the chart-basis forms, with no adapted frame.
    """
    (values, _), (halves, _) = _integrate_grids(
        surface, _Kernel("eta", surface, field), (grid, grid.half(surface)), workers)
    return values, halves


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
