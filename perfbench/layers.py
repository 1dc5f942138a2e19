"""Span tracing of curvint's layers from outside the package.

Every traced layer function is wrapped where its caller looks it up, so the
package itself is unchanged.  ``LAYER_WRAPS`` is the one table of wrapped
names: a name that no longer exists raises ``MissingLayer`` instead of
silently dropping that layer from the breakdown.

Spans are kept in memory (one list, appended to from every thread) and
turned into per-layer metrics after the traced passes.  Each thread keeps
its own span stack; blocks that run on pool threads get the pool span as
their parent explicitly, because a pool thread's own stack is empty.
"""

import dataclasses
import importlib
import itertools
import statistics
import threading
import time


class MissingLayer(Exception):
    """A name in LAYER_WRAPS is not where the table says it is."""


# (owner, attribute, span name, adapter).  The owner is a module path, or
# "module:Class" for a classmethod.  The adapter builds the wrapper; None
# means a plain span around the call.
LAYER_WRAPS = (
    ("curvint.cli", "main", "cli.main", None),
    ("curvint.catalog", "get_surface", "catalog.surface", "surface"),
    ("curvint.catalog", "get_field", "catalog.field_bind", "field"),
    ("curvint.cli", "verify_integral_formula", "degree.verify", None),
    ("curvint.cli", "foliation_obstruction_report", "degree.foliation", None),
    ("curvint.cli", "gauss_degree", "degree.degree", None),
    ("curvint.degree", "gauss_degree", "degree.degree", None),
    ("curvint.cli", "milnor_constraints", "degree.milnor", None),
    ("curvint.cli", "integrate_eta", "quadrature.integrate", None),
    ("curvint.quadrature", "_integrate_vector", "quadrature.integrate", "integrate"),
    ("curvint.degree", "_integrate_vector", "quadrature.integrate", "integrate"),
    ("curvint.quadrature:QuadratureGrid", "build", "quadrature.grid_build", None),
    ("curvint.quadrature:QuadratureGrid", "half", "quadrature.grid_build", "half"),
    ("curvint.quadrature", "_run_blocks", "quadrature.pool", "quadrature.block"),
    ("curvint.degree", "_run_blocks", "quadrature.pool", "degree.foliation_block"),
    ("curvint.quadrature", "tree_reduce_compensated", "quadrature.reduce", None),
    ("curvint.quadrature", "geometry_batch", "manifold.geometry", "points:2"),
    ("curvint.fields", "geometry_batch", "manifold.geometry", "points:2"),
    ("curvint.manifold", "geometry_batch", "manifold.geometry", "points:2"),
    ("curvint.degree", "shape_determinant_batch", "manifold.shape_det", None),
    ("curvint.quadrature", "shape_data_batch", "fields.shape_data", "points:3"),
    ("curvint.degree", "shape_data_batch", "fields.shape_data", "points:3"),
    ("curvint.quadrature", "eta_all", "invariants.eta", None),
    ("curvint.degree", "eta_all", "invariants.eta", None),
)

# per-layer self-time metrics: metric name -> span names whose self time it sums
SELF_TIME_METRICS = {
    "manifold.geometry_ms": ("manifold.geometry",),
    "manifold.shape_det_ms": ("manifold.shape_det",),
    "fields.shape_data_ms": ("fields.shape_data",),
    "invariants.eta_ms": ("invariants.eta",),
    "catalog.chart_ms": ("catalog.chart",),
    "catalog.field_ms": ("catalog.field",),
    "quadrature.grid_build_ms": ("quadrature.grid_build",),
    # weighting and exact fsum inside each integration block, plus the tree
    "quadrature.reduce_ms": ("quadrature.block", "quadrature.reduce"),
    # thread-pool start-up, dispatch and idle time not covered by blocks
    "quadrature.pool_ms": ("quadrature.pool",),
    "degree.verify_ms": ("degree.verify",),
    "degree.degree_ms": ("degree.degree",),
    # the foliation entry point plus its per-block SVD rank pass
    "degree.foliation_ms": ("degree.foliation", "degree.foliation_block"),
    "cli.self_ms": ("cli.main",),
}

_UNITS = {"quadrature.half_share": "share", "quadrature.parallelism": "ratio"}

BLOCK_SPANS = ("quadrature.block", "degree.foliation_block")
POOL_SPAN = "quadrature.pool"


class Tracer:
    """Collects spans and exact counts while the layer wrappers are installed."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._saved = []
        self._originals = {}
        self.wrapper_calls = 0
        self.reset()

    def reset(self):
        self.spans = []   # (id, parent, name, t0_ns, t1_ns)
        self.counts = {}
        self._half_grids = []  # kept alive so identity checks stay valid

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, key, amount):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + int(amount)
            self.wrapper_calls += 1

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))
            self.count("spans." + name, 1)

    # -- adapters ---------------------------------------------------------

    def _adapt(self, name, fn, adapter):
        if adapter is None:
            def spanned(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
            return spanned
        if adapter.startswith("points:"):
            return self._points(name, fn, int(adapter.split(":")[1]))
        if adapter == "integrate":
            def integrate(surface, func, grid, workers):
                self.count("quadrature.points", grid.total_points)
                if any(g is grid for g in self._half_grids):
                    self.count("quadrature.half_points", grid.total_points)
                return self.call(name, fn, (surface, func, grid, workers), {})
            return integrate
        if adapter == "half":
            def half(grid, surface):
                out = self.call(name, fn, (grid, surface), {})
                self._half_grids.append(out)
                return out
            return half
        if adapter in BLOCK_SPANS:
            def pool(tasks, worker, workers):
                self.count("quadrature.blocks", len(tasks))

                def run():
                    parent = self.current()

                    def block(task):
                        return self.call(adapter, worker, (task,), {}, parent=parent)
                    return fn(tasks, block, workers)
                return self.call(name, run, (), {})
            return pool
        if adapter == "surface":
            def build(*args, **kwargs):
                out = fn(*args, **kwargs)
                charts = tuple(
                    dataclasses.replace(
                        ch,
                        position=self._points("catalog.chart", ch.position, 0),
                        first_partials=self._points("catalog.chart", ch.first_partials, 0),
                        second_partials=self._points("catalog.chart", ch.second_partials, 0),
                    )
                    for ch in out.charts
                )
                return dataclasses.replace(out, charts=charts)

            def surface(*args, **kwargs):
                return self.call(name, build, args, kwargs)
            return surface
        if adapter == "field":
            def field(*args, **kwargs):
                out = self.call(name, fn, args, kwargs)
                jac = out.ambient_jacobian
                return dataclasses.replace(
                    out,
                    ambient_value=self._points("catalog.field", out.ambient_value, 1),
                    ambient_jacobian=None if jac is None
                    else self._points("catalog.field", jac, 1),
                )
            return field
        raise ValueError(f"unknown adapter {adapter!r}")

    def _points(self, name, fn, pos):
        """Span around fn that also counts the points of its batch argument."""
        def wrapper(*args, **kwargs):
            self.count(name + ".points", len(args[pos]))
            return self.call(name, fn, args, kwargs)
        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self):
        """Wrap every name in LAYER_WRAPS; raise MissingLayer on a rename."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner_path, attr, name, adapter in LAYER_WRAPS:
                owner = _resolve_owner(owner_path)
                if attr not in vars(owner):
                    raise MissingLayer(f"{owner_path}.{attr} (layer {name})")
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._adapt(name, raw.__func__, adapter))
                else:
                    wrapped = self._adapt(name, raw, adapter)
                self._saved.append((owner, attr, raw))
                self._originals.setdefault((owner_path, attr), raw)
                setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put every original object back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def check_restored(self):
        """True when every wrapped name holds its original object again."""
        return all(vars(_resolve_owner(o)).get(a) is raw
                   for (o, a), raw in self._originals.items())


def _resolve_owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


# -- turning spans into metrics -------------------------------------------

def _covered(intervals):
    """Length of the union of (t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times_ns(spans):
    """Span name -> summed self time: duration minus the union of its children."""
    children = {}
    for sid, parent, _, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, name, t0, t1 in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        own = (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
        out[name] = out.get(name, 0) + own
    return out


def unit(metric):
    """Unit of a per-layer metric: times are ms, the rest counts or ratios."""
    return "ms" if "_ms" in metric else _UNITS.get(metric, "count")


def span_table(spans):
    """Span name -> [calls, inclusive ms, self ms], for the run record."""
    selfs = self_times_ns(spans)
    table = {}
    for _, _, name, t0, t1 in spans:
        row = table.setdefault(name, [0, 0.0, selfs[name] / 1e6])
        row[0] += 1
        row[1] += (t1 - t0) / 1e6
    return table


def pass_layers(spans, counts):
    """Per-layer metrics of one traced pass (times in ms, counts exact)."""
    selfs = self_times_ns(spans)
    out = {metric: sum(selfs.get(n, 0) for n in names) / 1e6
           for metric, names in SELF_TIME_METRICS.items()}

    # every block span is a child of a pool span
    pool_wall = sum(t1 - t0 for _, _, name, t0, t1 in spans if name == POOL_SPAN)
    blocks = [t1 - t0 for _, _, name, t0, t1 in spans if name in BLOCK_SPANS]
    out["quadrature.parallelism"] = sum(blocks) / pool_wall if pool_wall else 0.0
    out["quadrature.block_ms_p50"] = statistics.median(blocks) / 1e6 if blocks else 0.0

    qpts = counts.get("quadrature.points", 0)
    out["quadrature.points"] = qpts
    out["quadrature.blocks"] = counts.get("quadrature.blocks", 0)
    out["quadrature.half_share"] = (
        counts.get("quadrature.half_points", 0) / qpts if qpts else 0.0)
    out["manifold.geometry_pts_per_qpt"] = (
        counts.get("manifold.geometry.points", 0) / qpts if qpts else 0.0)
    out["fields.shape_pts_per_qpt"] = (
        counts.get("fields.shape_data.points", 0) / qpts if qpts else 0.0)
    out["catalog.points"] = counts.get("catalog.chart.points", 0)
    return out
