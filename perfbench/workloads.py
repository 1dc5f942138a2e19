"""The workloads: the CLI calls they make and how each output is checked.

Every call carries its expected exit code and a checker.  A checker parses
the report the call printed, compares it with values the benchmark knows
independently of the program (degrees, exact integrals, reference volumes,
Milnor predicates), raises ``Mismatch`` on any disagreement and returns the
tolerance shares it saw: each checked quantity over the bound it must stay
within.  The largest share of a run is the ``tol_used`` metric.

The seed only reorders calls and, in sweep-small, assigns the sizes of each
fixed grid tuple to the chart axes.  The number of grid points of every
call is therefore the same for every seed, so seeds do not change how much
work a pass does.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

# Exact facts about the catalog, kept here so the checks do not trust the
# program under test.
DEGREE = {"sphere3": 1, "ellipsoid3": 1, "torus2": 0, "revs1s2": 0, "tube-t3": 0}
N_INTRINSIC = {"torus2": 1, "sphere3": 2, "ellipsoid3": 2, "revs1s2": 2, "tube-t3": 2}
BETTI = {
    "torus2": (1, 2, 1),
    "sphere3": (1, 0, 0, 1),
    "ellipsoid3": (1, 0, 0, 1),
    "revs1s2": (1, 1, 1, 1),
    "tube-t3": (1, 3, 3, 1),
}
# Surface volumes.  ellipsoid3 = diag(2,1,1,1) S^3 is a hypersurface of
# revolution with profile (2 cos c, sin c), so its volume is
# 4 pi * int_0^pi sin^2 c sqrt(4 sin^2 c + cos^2 c) dc, evaluated to 30
# digits with mpmath.quad.
VOLUME = {
    "torus2": 8.0 * math.pi ** 2,
    "sphere3": 2.0 * math.pi ** 2,
    "ellipsoid3": 35.30243434582517,
    "revs1s2": 16.0 * math.pi ** 2,
    "tube-t3": 4.8 * math.pi ** 3,
}
PAIRS = (("sphere3", "hopf"), ("ellipsoid3", "hopf"), ("revs1s2", "theta"),
         ("tube-t3", "fiber"), ("torus2", "theta"))
# foliation facts per pair: (a symmetric, hypothesis of the obstruction holds)
FOLIATION = {
    ("sphere3", "hopf"): (False, False),
    ("ellipsoid3", "hopf"): (False, False),
    ("revs1s2", "theta"): (True, True),
    ("tube-t3", "fiber"): (True, False),
    ("torus2", "theta"): (True, False),
}

REL_TOL = 1e-5           # CLI default --tol
ABS_TOL_PER_VOLUME = 1e-6  # CLI default --abs-tol is this times the volume
DEGREE_RESIDUAL_MAX = 0.1
EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 64


class Mismatch(Exception):
    """A call's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Call:
    argv: tuple
    expect_code: int
    check: Callable[[str], list]

    @property
    def report_key(self):
        """Calls equal up to --workers must print byte-identical reports."""
        argv = self.argv
        return tuple(a for i, a in enumerate(argv)
                     if a != "--workers" and (i == 0 or argv[i - 1] != "--workers"))


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


def _sphere_volume(m):
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _predicted(n, k, d):
    if n % 2 == 0 and k % 2 == 0:
        return d * math.comb(n // 2, k // 2) * _sphere_volume(n + 1)
    return 0.0


def _bound(surface, predicted):
    return max(ABS_TOL_PER_VOLUME * VOLUME[surface], REL_TOL * abs(predicted))


def _json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise Mismatch(f"report is not JSON: {exc}")


def _degree_shares(surface, deg):
    _require(deg["rounded"] == DEGREE[surface],
             f"{surface}: degree {deg['rounded']} != {DEGREE[surface]}")
    _require(abs(abs(deg["raw"] - deg["rounded"]) - deg["residual"]) <= 1e-12,
             f"{surface}: degree residual inconsistent with raw value")
    _require(deg["residual"] <= DEGREE_RESIDUAL_MAX, f"{surface}: degree residual too large")
    return [deg["residual"] / DEGREE_RESIDUAL_MAX]


def _check_foliation_dict(surface, field, fol, samples):
    integrable, hypothesis = FOLIATION[(surface, field)]
    _require(fol["samples"] == samples, f"{surface}: {fol['samples']} foliation samples")
    _require(fol["integrable"] is integrable, f"{surface}/{field}: integrable flag")
    _require(fol["hypothesis"] is hypothesis, f"{surface}/{field}: hypothesis flag")
    _require(fol["consistent"] is True, f"{surface}/{field}: foliation inconsistent")
    if hypothesis:
        _require(fol["degree"] is not None, f"{surface}: missing cross-check degree")
        return _degree_shares(surface, fol["degree"])
    _require(fol["degree"] is None, f"{surface}: unexpected cross-check degree")
    return []


def _eta_rows(surface, rows, resolved_expected):
    """Check eta rows against the exact integrals; shares of resolved rows."""
    n = N_INTRINSIC[surface]
    _require([r["k"] for r in rows] == list(range(n + 1)), f"{surface}: k rows")
    shares, all_good = [], True
    for r in rows:
        pred = _predicted(n, r["k"], DEGREE[surface])
        if "predicted" in r:
            _require(abs(r["predicted"] - pred) <= 1e-12 * max(1.0, abs(pred)),
                     f"{surface} k={r['k']}: predicted {r['predicted']!r}")
        bound = _bound(surface, pred)
        dev_share = abs(r["integral"] - pred) / bound
        est_share = r["est_err"] / bound
        if "pass" in r:
            _require(r["pass"] is (dev_share <= 1.0), f"{surface} k={r['k']}: pass flag")
            _require(r["resolved"] is (est_share <= 1.0),
                     f"{surface} k={r['k']}: resolved flag")
        all_good = all_good and dev_share <= 1.0 and est_share <= 1.0
        shares += [dev_share, est_share]
    if resolved_expected:
        _require(all_good, f"{surface}: an eta row fails or is unresolved")
        return shares
    _require(not all_good, f"{surface}: expected an under-resolved row")
    return []


def _grid_arg(grid):
    return ",".join(str(c) for c in grid)


def verify_call(surface, field, grid, workers):
    """``verify``; the report must pass unless the grid is known too coarse."""
    counts = grid or (48,) * (N_INTRINSIC[surface] + 1)
    # ellipsoid3 needs more than 16 nodes per axis to meet the default tolerance
    resolved = not (surface == "ellipsoid3" and max(counts) <= 16)
    argv = ["verify", "--surface", surface, "--field", field]
    if grid is not None:
        argv += ["--grid", _grid_arg(grid)]
    argv += ["--workers", str(workers)]

    def check(text):
        r = _json(text)
        _require((r["surface"], r["field"], r["grid"]) == (surface, field, list(counts)),
                 "verify report header")
        _require(r["timings_ms"] is None, "timings_ms must stay null")
        shares = _degree_shares(surface, r["degree"])
        shares += _eta_rows(surface, r["eta"], resolved)
        _require(r["milnor"]["all_ok"] is True and r["milnor"]["d"] == DEGREE[surface],
                 f"{surface}: milnor block")
        fol_counts = [min(c, 12) for c in counts]
        shares += _check_foliation_dict(surface, field, r["foliation"],
                                        math.prod(fol_counts))
        return shares if resolved else []

    code = EXIT_OK if resolved else EXIT_CHECK_FAILED
    return Call(tuple(argv), code, check)


def degree_call(surface, grid, workers):
    argv = ("degree", "--surface", surface, "--grid", _grid_arg(grid), "--workers", str(workers))

    def check(text):
        r = _json(text)
        _require((r["surface"], r["grid"]) == (surface, list(grid)), "degree report header")
        return _degree_shares(surface, r["degree"])

    return Call(argv, EXIT_OK, check)


def foliation_call(surface, field, grid, workers):
    argv = ["foliation", "--surface", surface, "--field", field]
    if grid is not None:
        argv += ["--grid", _grid_arg(grid)]
    argv += ["--workers", str(workers)]
    counts = grid or (48,) * (N_INTRINSIC[surface] + 1)

    def check(text):
        r = _json(text)
        _require((r["surface"], r["field"]) == (surface, field), "foliation report header")
        return _check_foliation_dict(surface, field, r["foliation"], math.prod(counts))

    return Call(tuple(argv), EXIT_OK, check)


def _milnor_holds(d, betti, oriented):
    beta = sum(betti)
    ok = (2 * d - beta) % 2 == 0 and 2 * abs(d) <= beta
    return ok and (not oriented or 2 - beta / 2 <= d <= beta / 2)


def milnor_call(d, betti, oriented=True):
    argv = ["milnor", "--d", str(d), "--betti", ",".join(map(str, betti))]
    if not oriented:
        argv.append("--unoriented")
    holds = _milnor_holds(d, betti, oriented)

    def check(text):
        r = _json(text)
        _require((r["d"], r["betti"]) == (d, list(betti)), "milnor report header")
        _require(r["milnor"]["beta_sum"] == sum(betti), "milnor beta_sum")
        _require(r["milnor"]["all_ok"] is holds, f"milnor d={d} betti={betti}")
        return []

    return Call(tuple(argv), EXIT_OK if holds else EXIT_CHECK_FAILED, check)


def milnor_surface_call(surface, grid, workers):
    argv = ("milnor", "--surface", surface, "--grid", _grid_arg(grid), "--workers", str(workers))

    def check(text):
        r = _json(text)
        _require(r["d"] == DEGREE[surface] and r["betti"] == list(BETTI[surface]),
                 f"milnor --surface {surface}")
        _require(r["milnor"]["all_ok"] is True, f"milnor --surface {surface} violated")
        return []

    return Call(argv, EXIT_OK, check)


def list_call():
    def check(text):
        keys = [line.split()[0] for line in text.splitlines()]
        _require(keys == sorted(DEGREE), f"list printed {keys}")
        return []

    return Call(("list",), EXIT_OK, check)


def usage_call(argv):
    def check(text):
        _require(text == "", "usage error printed a report")
        return []

    return Call(tuple(argv), EXIT_USAGE, check)


# ---------------------------------------------------------------------------

N2_PAIRS = PAIRS[:4]


def verify_n2(rng, nproc):
    """The four n = 2 pairs at the default 48^3 grid and worker count.

    The CLI's default worker count is the machine's parallelism, so this is
    what a plain ``verify`` does.  It is also what makes the timings repeat:
    on a 2-vCPU VM (KVM, Xeon) a single busy thread ran the same call up to
    1.5x slower or faster from one half-minute to the next, and ten runs of
    this workload at one worker spread by up to 0.40 (quartile distance over
    median); at nproc workers and 55 s runs they spread by 0.05 to 0.08.
    """
    calls = [verify_call(s, f, None, nproc) for s, f in N2_PAIRS]
    rng.shuffle(calls)
    return calls


# Grid tuples of sweep-small.  The seed permutes each tuple's sizes over the
# chart axes, which keeps the point count of every call fixed.
_TORUS_VERIFY = ((16, 16), (16, 128), (24, 96), (32, 64), (24, 40), (48, 48),
                 (80, 112), (64, 128), (96, 96), (128, 128))
_N2_VERIFY = ((8, 8, 8), (8, 10, 12), (10, 12, 14), (12, 12, 12), (12, 14, 16),
              (16, 16, 16))
_SMALL3 = ((8, 8, 8), (8, 10, 12), (10, 10, 10), (10, 12, 12), (12, 12, 12))
_SMALL2 = ((8, 8), (8, 12), (10, 10), (10, 12), (12, 12))
# (d, betti, oriented): the first six hold, the last six are violated
_MILNOR = (
    (1, (1, 0, 0, 1), True), (0, (1, 3, 3, 1), True), (0, (1, 1, 1, 1), True),
    (0, (1, 2, 1), True), (1, (1, 1, 1, 1), True), (-1, (1, 0, 0, 1), False),
    (3, (1, 0, 0, 1), True), (2, (1, 0, 0, 1), True), (0, (1, 1, 1), True),
    (-1, (1, 0, 0, 1), True), (5, (1, 3, 3, 1), True), (2, (1, 1, 1), False),
)
_USAGE = ("verify", "--surface", "sphere3", "--field", "hopf", "--grid", "4")


def _permuted(rng, grid):
    grid = list(grid)
    rng.shuffle(grid)
    return tuple(grid)


def sweep_small(rng, nproc):
    """Many short calls where per-call costs dominate, full pool.

    Nine calls also run with --workers 1, and must print the same bytes.
    """
    calls = []

    def add(make, grid, twin):
        g = _permuted(rng, grid)
        calls.append(make(g, nproc))
        if twin:
            calls.append(make(g, 1))

    for grid in _TORUS_VERIFY:
        add(lambda g, w: verify_call("torus2", "theta", g, w), grid, grid == (24, 96))
    for surface, field in N2_PAIRS:
        for grid in _N2_VERIFY:
            add(lambda g, w: verify_call(surface, field, g, w), grid, grid == (8, 10, 12))
    for surface, field in PAIRS:
        for grid in _SMALL2 if surface == "torus2" else _SMALL3:
            twin = grid == (8, 10, 12)
            add(lambda g, w: degree_call(surface, g, w), grid,
                twin and surface in ("ellipsoid3", "tube-t3"))
            add(lambda g, w: foliation_call(surface, field, g, w), grid,
                twin and surface in ("sphere3", "revs1s2"))
        calls.append(milnor_surface_call(surface, (8,) * (N_INTRINSIC[surface] + 1), nproc))
    calls += [milnor_call(d, b, o) for d, b, o in _MILNOR]
    calls += [list_call(), list_call()]
    calls.append(usage_call(_USAGE))
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "verify-n2": verify_n2,
    "sweep-small": sweep_small,
}
