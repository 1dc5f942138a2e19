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
timings therefore go to stderr and the report's ``timings_ms`` field is
always null.  Floats are printed with 17 significant digits.
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

# The value flags of each subcommand.  The parser is built from this table
# and a --config file may set exactly these keys, so a key the subcommand
# does not read is a usage error in the file as on the command line.
_FLAGS = {
    "verify": ("surface", "field", "grid", "k", "tol", "abs-tol", "workers",
               "out", "format"),
    "compute": ("surface", "field", "grid", "k", "workers", "out", "format"),
    "degree": ("surface", "grid", "workers", "out", "format"),
    "milnor": ("surface", "grid", "workers", "out", "format"),
    "foliation": ("surface", "field", "grid", "workers", "out", "format"),
}

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


def _read_config(path: str, command: str) -> dict:
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
            if key not in _FLAGS[command]:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r} for {command}")
            values[key] = val.strip()
    return values


def _resolve(args, config: dict, key: str, default=None):
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None:
        return cli_val
    if key in config:
        return config[key]
    return default


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


def _parse_workers(args, config) -> int:
    val = _resolve(args, config, "workers")
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


def _positive_float(args, config, key, default):
    val = _resolve(args, config, key, default)
    if val is None:
        return None
    try:
        out = float(val)
    except ValueError:
        raise UsageError(f"bad value for --{key}: {val!r}")
    if not (np.isfinite(out) and out > 0):
        raise UsageError(f"--{key} must be finite and positive, got {val!r}")
    return out


def _get_surface(key: str):
    try:
        return catalog.get_surface(key)
    except KeyError as exc:
        raise UsageError(str(exc))


def _get_field(key: str, surface):
    try:
        return catalog.get_field(key, surface)
    except KeyError as exc:
        raise UsageError(str(exc))


def _setup(args, config, field=True):
    """Catalog surface, its bound field (None unless ``field``) and grid."""
    surface = _get_surface(_resolve(args, config, "surface"))
    bound = None
    if field:
        field_key = _resolve(args, config, "field")
        if field_key is None:
            raise UsageError(f"{args.command} requires --field")
        bound = _get_field(field_key, surface)
    counts = _parse_grid(_resolve(args, config, "grid"), surface.dim)
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


def _degree_dict(deg):
    return {"raw": deg.raw, "rounded": deg.rounded, "residual": deg.residual}


def _milnor_dict(rep):
    return {
        "d": rep.d,
        "beta_sum": rep.beta_sum,
        "parity_ok": rep.parity_ok,
        "bound_ok": rep.bound_ok,
        "oriented_bound_ok": rep.oriented_bound_ok,
        "all_ok": rep.all_ok,
    }


def _foliation_dict(rep):
    return {
        "samples": rep.samples,
        "max_defect": rep.max_defect,
        "max_rank": rep.max_rank,
        "rank_threshold": rep.rank_threshold,
        "integrable": rep.integrable,
        "hypothesis": rep.hypothesis,
        "degree_zero_concluded": rep.degree_zero_concluded,
        "degree": None if rep.degree is None else _degree_dict(rep.degree),
        "consistent": rep.consistent,
        "note": rep.note,
    }


def _finish(report: dict, args, config, default_format="json") -> None:
    fmt = _resolve(args, config, "format", default_format)
    if fmt not in ("json", "csv"):
        raise UsageError(f"unknown format {fmt!r}")
    if fmt == "csv":
        if "eta" not in report:
            raise UsageError("csv format is only available for verify/compute")
        text = _eta_csv(report)
    else:
        text = _emit_json(report) + "\n"
    _write_report(text, _resolve(args, config, "out"))


# ---------------------------------------------------------------------------
# subcommands

def cmd_list(args, config) -> int:
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


def cmd_verify(args, config) -> int:
    t0 = time.perf_counter()
    surface, field, grid = _setup(args, config)
    workers = _parse_workers(args, config)
    rel_tol = _positive_float(args, config, "tol", DEFAULT_REL_TOL)
    abs_tol = _positive_float(args, config, "abs-tol", None)
    ks = _parse_k(_resolve(args, config, "k"), surface.n_intrinsic)

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
        "degree": _degree_dict(rep.degree),
        "eta": [
            {
                "k": r.k,
                "integral": r.integral,
                "predicted": r.predicted,
                "abs_dev": r.abs_dev,
                "rel_dev": r.rel_dev,
                "pass": r.passed,
                "est_err": r.estimated_error,
                "resolved": r.resolved,
            }
            for r in rep.rows
        ],
        "milnor": None if milnor is None else _milnor_dict(milnor),
        "foliation": _foliation_dict(fol),
        "timings_ms": None,
        "version": __version__,
    }
    _finish(report, args, config)

    elapsed = 1000.0 * (time.perf_counter() - t0)
    ok = (rep.all_passed and rep.all_resolved
          and (milnor is None or milnor.all_ok) and fol.consistent)
    for r in rep.rows:
        status = "pass" if (r.passed and r.resolved) else "FAIL"
        print(f"k={r.k}: integral={r.integral:.12g} predicted={r.predicted:.12g} "
              f"dev={r.abs_dev:.3g} est_err={r.estimated_error:.3g} [{status}]",
              file=sys.stderr)
    print(f"degree {rep.degree.rounded} (residual {rep.degree.residual:.3g}); "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}; {elapsed:.0f} ms",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_compute(args, config) -> int:
    t0 = time.perf_counter()
    surface, field, grid = _setup(args, config)
    results = integrate_eta(surface, field, grid,
                            k=_parse_k(_resolve(args, config, "k"),
                                       surface.n_intrinsic),
                            workers=_parse_workers(args, config))
    report = {
        **_header(surface, field, grid),
        "eta": [
            {"k": k, "integral": r.value, "est_err": r.estimated_error}
            for k, r in sorted(results.items())
        ],
        "timings_ms": None,
        "version": __version__,
    }
    _finish(report, args, config)
    print(f"computed {len(results)} integrals in "
          f"{1000 * (time.perf_counter() - t0):.0f} ms", file=sys.stderr)
    return EXIT_OK


def cmd_degree(args, config) -> int:
    t0 = time.perf_counter()
    surface, _, grid = _setup(args, config, field=False)
    deg = gauss_degree(surface, grid, workers=_parse_workers(args, config))
    report = {
        **_header(surface, None, grid),
        "degree": _degree_dict(deg),
        "timings_ms": None,
        "version": __version__,
    }
    _finish(report, args, config)
    print(f"degree {deg.rounded} (residual {deg.residual:.3g}) in "
          f"{1000 * (time.perf_counter() - t0):.0f} ms", file=sys.stderr)
    return EXIT_OK


def cmd_milnor(args, config) -> int:
    betti_arg = args.betti
    d_arg = args.d
    surface_key = _resolve(args, config, "surface")

    if d_arg is None:
        if surface_key is None:
            raise UsageError("milnor requires --d or --surface")
        surface, _, grid = _setup(args, config, field=False)
        if betti_arg is None:
            betti = surface.metadata.betti
            if betti is None:
                raise UsageError("surface has no Betti data; pass --betti")
        else:
            betti = _parse_betti(betti_arg)
        d = gauss_degree(surface, grid,
                         workers=_parse_workers(args, config)).rounded
    else:
        try:
            d = int(d_arg)
        except ValueError:
            raise UsageError(f"bad degree {d_arg!r}")
        if betti_arg is None:
            raise UsageError("milnor with --d requires --betti")
        betti = _parse_betti(betti_arg)

    rep = milnor_constraints(MilnorInput(d=d, betti=betti,
                                         oriented=not args.unoriented))
    report = {
        "d": d,
        "betti": list(betti),
        "milnor": _milnor_dict(rep),
        "version": __version__,
    }
    _finish(report, args, config)
    print("constraints " + ("hold" if rep.all_ok else "VIOLATED"),
          file=sys.stderr)
    return EXIT_OK if rep.all_ok else EXIT_CHECK_FAILED


def cmd_foliation(args, config) -> int:
    t0 = time.perf_counter()
    surface, field, grid = _setup(args, config)
    rep = foliation_obstruction_report(
        surface, field, grid, workers=_parse_workers(args, config))
    report = {
        **_header(surface, field, grid),
        "foliation": _foliation_dict(rep),
        "version": __version__,
    }
    _finish(report, args, config)
    print(f"integrable={str(rep.integrable).lower()} "
          f"max_defect={rep.max_defect:.3g} max_rank={rep.max_rank} in "
          f"{1000 * (time.perf_counter() - t0):.0f} ms", file=sys.stderr)
    return EXIT_OK if rep.consistent else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

@functools.cache  # built once per process: parse_args keeps no state on it
def _build_parser() -> _Parser:
    parser = _Parser(prog="curvint", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {
        "verify": "verify the invariant integral identity",
        "compute": "compute invariant integrals",
        "degree": "normal-map degree",
        "milnor": "Betti constraints on the degree",
        "foliation": "foliation obstruction report",
    }
    sub.add_parser("list", help="list catalog surfaces and fields")
    for command, keys in _FLAGS.items():
        p = sub.add_parser(command, help=helps[command])
        for key in keys:
            choices = ("json", "csv") if key == "format" else None
            p.add_argument(f"--{key}", choices=choices, help=_FLAG_HELP[key])
        p.add_argument("--config", help="key=value config file; flags win")

    p = sub.choices["milnor"]
    p.add_argument("--d", help="degree value (skips the surface run)")
    p.add_argument("--betti", help="comma-separated Betti numbers")
    p.add_argument("--unoriented", action="store_true",
                   help="skip the oriented two-sided bound")
    return parser


_COMMANDS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "compute": cmd_compute,
    "degree": cmd_degree,
    "milnor": cmd_milnor,
    "foliation": cmd_foliation,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = {}
        cfg_path = getattr(args, "config", None)
        if cfg_path:
            config = _read_config(cfg_path, args.command)
        if args.command != "list" and args.command != "milnor":
            if _resolve(args, config, "surface") is None:
                raise UsageError(f"{args.command} requires --surface")
        return _COMMANDS[args.command](args, config)
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
