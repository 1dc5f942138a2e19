"""Command-line frontend: catalog listing, runs, and JSON/CSV reports.

Subcommands
-----------
list        catalog surfaces and fields with metadata
verify      check the invariant integrals against their predicted values
compute     invariant integrals only, no predictions
degree      normal-map degree of a surface
milnor      Betti-number constraints on a degree
foliation   integrability defect and rank report for a field

Exit codes: 0 success / all checks pass, 1 any check failed,
2 numerical evaluation error, 64 usage error.

Reports are byte-deterministic: identical configuration produces
byte-identical output regardless of the worker count.  Wall-clock
timings therefore go to stderr: every subcommand but ``list`` ends with a
stderr summary that gives its wall time, and the report's ``timings_ms``
field is always null.  Floats are printed with 17 significant digits.

A usage error in the flags, the config file or the format exits 64 before
any grid pass; only an unwritable ``--out`` shows after the run, when the
report is written.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__, catalog
from .degree import (
    DEFAULT_REL_TOL,
    MilnorInput,
    foliation_obstruction_report,
    gauss_degree,
    milnor_constraints,
    verify_integral_formula,
)
from .errors import CurvintError
from .quadrature import QuadratureGrid, _select_ks, default_workers, integrate_eta

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_EVAL_ERROR = 2
EXIT_USAGE = 64

MIN_NODES = 8
_FOLIATION_SUMMARY_NODES = 12  # coarse sample grid for the verify report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    return f"{float(x):.17g}"


def _emit_json(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_emit_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(_emit_json(v, indent + 1) for v in obj)
        return "[" + inner + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    return str(v)


def _eta_csv(report_dict) -> str:
    head = ["surface", "field", "n", "grid", "degree_raw", "degree",
            "degree_residual", "k", "integral", "predicted", "abs_dev",
            "rel_dev", "pass", "est_err", "resolved"]
    grid = "x".join(str(c) for c in report_dict["grid"])
    deg = report_dict.get("degree") or {}
    rows = [",".join(head)]
    for row in report_dict["eta"]:
        cells = [
            report_dict["surface"], report_dict.get("field") or "", report_dict["n"],
            grid, deg.get("raw"), deg.get("rounded"), deg.get("residual"),
            row["k"], row["integral"], row.get("predicted"), row.get("abs_dev"),
            row.get("rel_dev"), row.get("pass"), row.get("est_err"),
            row.get("resolved"),
        ]
        rows.append(",".join(_csv_cell(c) for c in cells))
    return "\n".join(rows) + "\n"


def _write_report(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# configuration

_FLAG_HELP = {
    "surface": "catalog surface identifier",
    "field": "catalog field identifier",
    "grid": "nodes per coordinate, e.g. 48 or 48,48,48",
    "k": 'invariant selection: "all" or e.g. 0,2',
    "tol": f"relative tolerance (default {DEFAULT_REL_TOL:g})",
    "abs-tol": "absolute tolerance (default 1e-6 * surface volume)",
    "workers": "thread count (env CURVINT_WORKERS, default: CPUs this process may use)",
    "out": "report file (default: stdout)",
    "format": "report format (default json)",
}


def _merge_config(args) -> None:
    """Fill each value flag not given on the command line from ``--config``."""
    path = args.config
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    values = {}
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _COMMANDS[args.command][1]:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r} for {args.command}")
            values[key.replace("-", "_")] = val.strip()
    for attr, val in values.items():
        if getattr(args, attr) is None:
            setattr(args, attr, val)


def _parse_grid(text, dim: int) -> tuple[int, ...]:
    if text is None:
        counts = (48,) * dim
    else:
        try:
            parts = [int(p) for p in str(text).split(",")]
        except ValueError:
            raise UsageError(f"bad grid {text!r}")
        counts = tuple(parts) if len(parts) > 1 else (parts[0],) * dim
    if len(counts) != dim:
        raise UsageError(f"grid needs {dim} node counts, got {len(counts)}")
    if any(c < MIN_NODES for c in counts):
        raise UsageError(f"node counts must be >= {MIN_NODES}")
    return counts


def _parse_k(text, n: int):
    if text is None or text == "all":
        return "all"
    try:
        return _select_ks(n, [int(p) for p in str(text).split(",")])
    except ValueError:
        raise UsageError(f"bad k selection {text!r}; indices lie in [0, {n}]")


def _parse_betti(text) -> tuple[int, ...]:
    try:
        betti = tuple(int(b) for b in str(text).split(","))
    except ValueError:
        raise UsageError(f"bad betti list {text!r}")
    if any(b < 0 for b in betti):
        raise UsageError(f"Betti numbers must be non-negative, got {text!r}")
    return betti


def _parse_workers(args) -> int:
    val = args.workers
    if val is None:
        val = os.environ.get("CURVINT_WORKERS")
    if val is None:
        return default_workers()
    try:
        workers = int(val)
    except ValueError:
        raise UsageError(f"bad worker count {val!r}")
    if workers < 1:
        raise UsageError("worker count must be >= 1")
    return workers


def _positive_float(args, key, default):
    val = getattr(args, key.replace("-", "_"))
    if val is None:
        return default
    try:
        out = float(val)
    except ValueError:
        raise UsageError(f"bad value for --{key}: {val!r}")
    if not (np.isfinite(out) and out > 0):
        raise UsageError(f"--{key} must be finite and positive, got {val!r}")
    return out


def _setup(args, field=True):
    """Catalog surface, its bound field (None unless ``field``) and grid."""
    if args.surface is None:
        raise UsageError(f"{args.command} requires --surface")
    try:
        surface = catalog.get_surface(args.surface)
        bound = None
        if field:
            if args.field is None:
                raise UsageError(f"{args.command} requires --field")
            bound = catalog.get_field(args.field, surface)
    except KeyError as exc:
        raise UsageError(str(exc))
    counts = _parse_grid(args.grid, surface.dim)
    try:
        grid = QuadratureGrid.build(surface, counts)
    except (MemoryError, ValueError):  # numpy refuses the node array up front
        raise UsageError(f"grid {','.join(map(str, counts))} cannot be allocated")
    return surface, bound, grid


# ---------------------------------------------------------------------------
# report assembly

def _header(surface, field, grid):
    head = {"surface": surface.metadata.key}
    if field is not None:
        head["field"] = field.key
    head["n"] = surface.n_intrinsic
    head["grid"] = list(grid.counts)
    return head


def _pick(obj, names: str) -> dict:
    """Attributes of ``obj`` in the order named; ``key=attr`` renames one."""
    out = {}
    for name in names.split():
        key, _, attr = name.partition("=")
        out[key] = getattr(obj, attr or key)
    return out


_DEGREE_KEYS = "raw rounded residual"
_MILNOR_KEYS = "d beta_sum parity_ok bound_ok oriented_bound_ok all_ok"
_ETA_KEYS = ("k integral predicted abs_dev rel_dev pass=passed "
             "est_err=estimated_error resolved")
_FOLIATION_KEYS = ("samples max_defect max_rank rank_threshold integrable "
                   "hypothesis degree_zero_concluded degree consistent note")


def _foliation_dict(rep):
    out = _pick(rep, _FOLIATION_KEYS)
    if rep.degree is not None:
        out["degree"] = _pick(rep.degree, _DEGREE_KEYS)
    return out


# ---------------------------------------------------------------------------
# subcommands: each but list returns (report, ok, summary); main appends
# "version" to the report, writes it, and ends the summary with the wall time

def cmd_list(args) -> int:
    lines = []
    for key in catalog.surface_names():
        e = catalog.surface_entry(key)
        betti = ",".join(str(b) for b in e.betti)
        fields = ",".join(e.fields)
        lines.append(
            f"{key:<12} n={e.n}  dim={e.n + 1}  ambient={e.n + 2}  chi=0  "
            f"betti=({betti})  fields={fields}  {e.name}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args):
    surface, field, grid = _setup(args)
    workers = _parse_workers(args)
    rel_tol = _positive_float(args, "tol", DEFAULT_REL_TOL)
    abs_tol = _positive_float(args, "abs-tol", None)
    ks = _parse_k(args.k, surface.n_intrinsic)

    rep = verify_integral_formula(
        surface, field, grid, rel_tol=rel_tol, abs_tol=abs_tol,
        k=ks, workers=workers,
    )

    milnor = None
    if surface.metadata.betti is not None:
        milnor = milnor_constraints(MilnorInput(
            d=rep.degree.rounded, betti=surface.metadata.betti, oriented=True))

    sample_counts = tuple(min(c, _FOLIATION_SUMMARY_NODES) for c in grid.counts)
    fol = foliation_obstruction_report(
        surface, field, QuadratureGrid.build(surface, sample_counts),
        workers=workers)

    report = {
        **_header(surface, field, grid),
        "degree": _pick(rep.degree, _DEGREE_KEYS),
        "eta": [_pick(r, _ETA_KEYS) for r in rep.rows],
        "milnor": None if milnor is None else _pick(milnor, _MILNOR_KEYS),
        "foliation": _foliation_dict(fol),
        "timings_ms": None,
    }
    ok = (rep.all_passed and rep.all_resolved
          and (milnor is None or milnor.all_ok) and fol.consistent)
    lines = [f"k={r.k}: integral={r.integral:.12g} predicted={r.predicted:.12g} "
             f"dev={r.abs_dev:.3g} est_err={r.estimated_error:.3g} "
             f"[{'pass' if (r.passed and r.resolved) else 'FAIL'}]"
             for r in rep.rows]
    lines.append(f"degree {rep.degree.rounded} (residual {rep.degree.residual:.3g}); "
                 f"{'all checks passed' if ok else 'CHECKS FAILED'};")
    return report, ok, "\n".join(lines)


def cmd_compute(args):
    surface, field, grid = _setup(args)
    results = integrate_eta(surface, field, grid,
                            k=_parse_k(args.k, surface.n_intrinsic),
                            workers=_parse_workers(args))
    report = {
        **_header(surface, field, grid),
        "eta": [
            {"k": k, "integral": r.value, "est_err": r.estimated_error}
            for k, r in sorted(results.items())
        ],
        "timings_ms": None,
    }
    return report, True, f"computed {len(results)} integrals in"


def cmd_degree(args):
    surface, _, grid = _setup(args, field=False)
    deg = gauss_degree(surface, grid, workers=_parse_workers(args))
    report = {
        **_header(surface, None, grid),
        "degree": _pick(deg, _DEGREE_KEYS),
        "timings_ms": None,
    }
    return report, True, f"degree {deg.rounded} (residual {deg.residual:.3g}) in"


def cmd_milnor(args):
    if args.d is None:
        if args.surface is None:
            raise UsageError("milnor requires --d or --surface")
        surface, _, grid = _setup(args, field=False)
        if args.betti is None:
            betti = surface.metadata.betti
            if betti is None:
                raise UsageError("surface has no Betti data; pass --betti")
        else:
            betti = _parse_betti(args.betti)
        d = gauss_degree(surface, grid, workers=_parse_workers(args)).rounded
    else:
        try:
            d = int(args.d)
        except ValueError:
            raise UsageError(f"bad degree {args.d!r}")
        if args.betti is None:
            raise UsageError("milnor with --d requires --betti")
        betti = _parse_betti(args.betti)

    rep = milnor_constraints(MilnorInput(d=d, betti=betti,
                                         oriented=not args.unoriented))
    report = {"d": d, "betti": list(betti), "milnor": _pick(rep, _MILNOR_KEYS)}
    return report, rep.all_ok, f"constraints {'hold' if rep.all_ok else 'VIOLATED'} in"


def cmd_foliation(args):
    surface, field, grid = _setup(args)
    rep = foliation_obstruction_report(
        surface, field, grid, workers=_parse_workers(args))
    report = {**_header(surface, field, grid), "foliation": _foliation_dict(rep)}
    return report, rep.consistent, (
        f"integrable={str(rep.integrable).lower()} "
        f"max_defect={rep.max_defect:.3g} max_rank={rep.max_rank} in")


# ---------------------------------------------------------------------------

# Each subcommand's help text, value flags and handler.  The parser is built
# from this table, and a --config file may set exactly the value flags, so a
# key the subcommand does not read is a usage error in the file as on the
# command line.
_COMMON = ("workers", "out", "format")
_COMMANDS = {
    "list": ("list catalog surfaces and fields", (), cmd_list),
    "verify": ("verify the invariant integral identity",
               ("surface", "field", "grid", "k", "tol", "abs-tol", *_COMMON),
               cmd_verify),
    "compute": ("compute invariant integrals",
                ("surface", "field", "grid", "k", *_COMMON), cmd_compute),
    "degree": ("normal-map degree", ("surface", "grid", *_COMMON), cmd_degree),
    "milnor": ("Betti constraints on the degree", ("surface", "grid", *_COMMON),
               cmd_milnor),
    "foliation": ("foliation obstruction report",
                  ("surface", "field", "grid", *_COMMON), cmd_foliation),
}


@functools.cache  # built once per process: parse_args keeps no state on it
def _build_parser() -> _Parser:
    parser = _Parser(prog="curvint", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in keys:
            choices = ("json", "csv") if key == "format" else None
            p.add_argument(f"--{key}", choices=choices, help=_FLAG_HELP[key])
        if keys:
            p.add_argument("--config", help="key=value config file; flags win")

    p = sub.choices["milnor"]
    p.add_argument("--d", help="degree value (skips the surface run)")
    p.add_argument("--betti", help="comma-separated Betti numbers")
    p.add_argument("--unoriented", action="store_true",
                   help="skip the oriented two-sided bound")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][2]
    if args.command == "list":  # no report: the listing is the output
        return handler(args)
    try:
        if args.config:
            _merge_config(args)
        fmt = args.format or "json"
        if fmt not in ("json", "csv"):
            raise UsageError(f"unknown format {fmt!r}")
        if fmt == "csv" and args.command not in ("verify", "compute"):
            raise UsageError("csv format is only available for verify/compute")
        t0 = time.perf_counter()
        report, ok, summary = handler(args)
        report["version"] = __version__
        _write_report(_eta_csv(report) if fmt == "csv" else _emit_json(report) + "\n",
                      args.out)
        print(f"{summary} {1000 * (time.perf_counter() - t0):.0f} ms", file=sys.stderr)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except UsageError as exc:
        print(f"curvint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CurvintError as exc:
        print(f"curvint: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
