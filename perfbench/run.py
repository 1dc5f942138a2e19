"""curvint benchmark: drives ``curvint.cli.main`` in-process as a closed loop.

    python3 perfbench/run.py --workload verify-n2 --seed 1 --seconds 55 --trace 0

Run from the repository root.  One client makes one CLI call at a time and
checks every output (exit code, report contents against independently known
values, byte identity across passes and across worker counts).  Passes over
the workload's call list repeat until ``--seconds`` would be exceeded.

``--trace 0`` measures end-to-end metrics with no wrapper installed.
``--trace 1`` runs an untraced pass and at least two traced passes, and
reports per-layer self times (ms per pass) and exact counts; the counts of
the traced passes must agree exactly.

The last line of stdout is the result object; the line before it is a
record of the environment and the raw samples.  A human-readable summary
goes to stderr.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 4
MIN_TRACED_PASSES = 2

# One compute thread per pool worker: keep BLAS from adding its own threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Every call starts fresh pool threads.  With glibc's default of one malloc
# arena per thread, which arena a thread gets and so the peak resident set
# changed from run to run by up to 25% with the same seed; one arena makes
# the peak repeat.  This must run before any thread exists.
_M_ARENA_MAX = -8
try:
    ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
except (OSError, AttributeError):
    pass

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import curvint
from curvint import catalog
for key in catalog.surface_names():
    surface = catalog.get_surface(key)
    for name in catalog.field_names(key):
        catalog.get_field(name, surface)
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_curvint():
    """Import curvint from this checkout's src/, never from elsewhere."""
    if not (SRC / "curvint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no curvint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvint

    if Path(curvint.__file__).resolve().parent != (SRC / "curvint").resolve():
        sys.exit(f"perfbench: imported curvint from {curvint.__file__}, not {SRC}")
    return curvint


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _environment(np, nproc, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "seed": seed,
    }


def measure_setup(nproc):
    """Median cold import + catalog construction over fresh processes (s).

    The processes start nproc at a time, so that every CPU is busy while
    they run (see ``workloads.verify_n2`` for why).  The first round only
    warms the file cache and is dropped.
    """
    samples = []
    for _ in range(1 + SETUP_ROUNDS):
        procs = []
        try:
            for _ in range(nproc):
                procs.append(subprocess.Popen(
                    [sys.executable, "-c", _SETUP_CODE, str(SRC)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for proc in procs:
                out, err = proc.communicate(timeout=120)
                if proc.returncode != 0:
                    sys.exit(f"perfbench: set-up process failed:\n{err}")
                samples.append(float(out.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    samples = samples[nproc:]
    return statistics.median(samples), samples


class Runner:
    """Runs calls through cli.main and keeps the failure accounting."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.shares = []
        self._reports = {}
        self._errors = []

    def run(self, call):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(call.argv))
                except SystemExit as exc:
                    code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed_ms = 1000.0 * (time.perf_counter() - t0)
        self.attempted += 1
        try:
            self._check(call, code, out.getvalue())
        except Exception as exc:
            self.failed += 1
            if len(self._errors) < 20:
                self._errors.append(f"{' '.join(call.argv)}: {exc}\n{err.getvalue()[-2000:]}")
        return elapsed_ms

    def _check(self, call, code, text):
        from workloads import Mismatch

        if code != call.expect_code:
            raise Mismatch(f"exit code {code}, expected {call.expect_code}")
        if self._reports.setdefault(call.report_key, text) != text:
            raise Mismatch("report bytes differ from an earlier pass or worker count")
        self.shares += call.check(text)

    def errors(self):
        return list(self._errors)


def run_pass(runner, calls):
    """Wall time of one pass (s) and the latency of each call in it (ms)."""
    t0 = time.perf_counter()
    call_ms = [runner.run(call) for call in calls]
    return time.perf_counter() - t0, call_ms


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = _parse_args(argv)
    _import_curvint()
    import numpy as np
    from curvint import cli
    from layers import MissingLayer, Tracer, pass_layers, span_table, unit
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    env = _environment(np, nproc, args.seed)
    setup_s, setup_samples = measure_setup(nproc)

    calls = WORKLOADS[args.workload](random.Random(args.seed), nproc)
    runner = Runner(cli)
    call_ms, pass_s, traced_s, layers, counts, peak_mb = [], [], [], [], [], []
    tracer = Tracer()
    unwrapped = True  # untraced passes ran no wrapper; originals were restored

    def untraced():
        nonlocal unwrapped
        before = tracer.wrapper_calls
        elapsed, ms = run_pass(runner, calls)
        pass_s.append(elapsed)
        call_ms.append(ms)
        unwrapped = unwrapped and tracer.wrapper_calls == before
        # The peak only grows with more passes (allocator arenas of fresh pool
        # threads), so report it after the first pass for a fixed amount of work.
        if not peak_mb:
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def traced():
        nonlocal unwrapped
        tracer.reset()
        try:
            tracer.install()
        except MissingLayer as exc:
            sys.exit(f"perfbench: traced layer is gone: {exc}")
        try:
            traced_s.append(run_pass(runner, calls)[0])
        finally:
            tracer.restore()
        unwrapped = unwrapped and tracer.check_restored()
        layers.append(pass_layers(tracer.spans, tracer.counts))
        counts.append(dict(tracer.counts))

    start = time.perf_counter()
    if args.trace:
        untraced()
        for _ in range(MIN_TRACED_PASSES):
            traced()
        while time.perf_counter() - start + pass_s[-1] + traced_s[-1] <= args.seconds:
            untraced()
            traced()
    else:
        untraced()
        # start a pass while at least half of it fits, so runs last --seconds
        # on average instead of wasting up to a whole pass
        while time.perf_counter() - start + statistics.median(pass_s) / 2 <= args.seconds:
            untraced()
    counts_identical = all(c == counts[0] for c in counts)

    load_after = os.getloadavg()
    if args.trace:
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers),
                   "unit": unit(name)}
            for name in layers[0]
        }
        metrics["trace.run_s"] = {"value": statistics.median(traced_s), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_s) - statistics.median(pass_s), "unit": "s"}
    else:
        # Each distinct call's latency is its median over the run's passes, so a
        # burst of hypervisor steal during one pass does not move the percentiles.
        samples = [statistics.median(per_call) for per_call in zip(*call_ms)]
        metrics = {
            "run_s": {"value": statistics.median(pass_s), "unit": "s"},
            "call_ms_p50": {"value": statistics.median(samples), "unit": "ms"},
            "call_ms_p90": {"value": _quantile(samples, 90), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb[0], "unit": "MB"},
            "ok_frac": {"value": (runner.attempted - runner.failed) / runner.attempted,
                        "unit": "share"},
            "tol_used": {"value": max(runner.shares, default=0.0), "unit": "share"},
        }

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "load_before": load_before,
        "load_after": load_after,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "traced_pass_s": traced_s,
        "call_samples": len(calls),
        "call_ms_by_pass": call_ms,
        "setup_samples_s": setup_samples,
        "failed_frac": runner.failed / runner.attempted,
        "untraced_ran_no_wrapper": unwrapped,
        "traced_counts_identical": counts_identical if args.trace else None,
        "counts": counts[0] if counts else None,
        "spans": span_table(tracer.spans) if args.trace else None,
        "errors": runner.errors(),
    }
    for msg in runner.errors():
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} calls, {runner.failed} failed "
          f"(failed_frac={record['failed_frac']:.4g}), {len(pass_s)} untraced and "
          f"{len(traced_s)} traced passes", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)

    result = {
        "correct": runner.failed == 0 and unwrapped and counts_identical,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
