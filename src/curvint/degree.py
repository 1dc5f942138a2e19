"""Normal-map degree, integral-formula verification, and obstructions.

The degree of the normal map is read off the k = 0 invariant integral:
the determinant of the second fundamental form is the Jacobian of the
normal map, so its integral equals the degree times the unit-sphere
volume.  With a unit field present, every invariant integral is pinned
by an exact identity: for even k and even n it equals
degree * C(n/2, k/2) * vol(S^{n+1}), and it vanishes when k or n is odd.
This module verifies that identity on a grid, evaluates the classical
Betti-number constraints on the degree, and reports the foliation
obstruction carried by the field's tangential derivative matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvintError, IndexOutOfRange, NonIntegerDegree
from .fields import TangentField, shape_data_batch
from .invariants import ColumnSystem, eta_all
from .manifold import ChartedHypersurface, shape_determinant_batch
from .quadrature import (
    BLOCK,
    QuadratureGrid,
    _block_tasks,
    _check_grid,
    _integrate_vector,
    _run_blocks,
    _select_ks,
)

_DEGREE_RESIDUAL_MAX = 0.1

DEFAULT_REL_TOL = 1e-5
DEFAULT_ABS_TOL_VOLUME_FACTOR = 1e-6

FOLIATION_DEFECT_TOL = 1e-6
RANK_REL_TOL = 1e-8
RANK_ABS_TOL = 1e-10


def sphere_volume(m: int) -> float:
    """Volume of the unit m-sphere: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 1:
        raise IndexOutOfRange(f"sphere dimension must be >= 1, got {m}")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


@dataclass(frozen=True)
class DegreeResult:
    """Normal-map degree extracted from the curvature integral."""

    raw: float       # integral of det(h) divided by vol(S^{n+1})
    rounded: int
    residual: float

    @property
    def valid(self) -> bool:
        return self.residual <= _DEGREE_RESIDUAL_MAX


def _degree_from_raw(raw: float) -> DegreeResult:
    rounded = int(np.rint(raw))
    return DegreeResult(raw=float(raw), rounded=rounded,
                        residual=float(abs(raw - rounded)))


def gauss_degree(
    surface: ChartedHypersurface,
    grid: QuadratureGrid,
    workers: int | None = None,
) -> DegreeResult:
    """Degree of the normal map from its Jacobian-determinant integral.

    Raises NonIntegerDegree when the integral is farther than 0.1 from an
    integer, which signals under-resolution or a non-closed or
    incoherently oriented input.
    """

    def func(ci, U):
        det, volume_factor = shape_determinant_batch(surface, ci, U)
        return det[:, None], volume_factor

    total = _integrate_vector(surface, func, grid, workers)[0]
    result = _degree_from_raw(total / sphere_volume(surface.dim))
    if not result.valid:
        raise NonIntegerDegree(
            f"degree integral {result.raw:.6g} is {result.residual:.3g} "
            "away from the nearest integer"
        )
    return result


def predicted_integral(n: int, k: int, degree: int) -> float:
    """Exact value of the k-th invariant integral for a degree-d surface."""
    if n % 2 == 0 and k % 2 == 0:
        return degree * math.comb(n // 2, k // 2) * sphere_volume(n + 1)
    return 0.0


@dataclass(frozen=True)
class EtaCheck:
    """Verification row for one invariant integral."""

    k: int
    integral: float
    predicted: float
    abs_dev: float
    rel_dev: float | None
    passed: bool
    estimated_error: float
    resolved: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the integral-formula verification on one grid."""

    surface_key: str
    field_key: str
    n: int
    grid_counts: tuple[int, ...]
    volume: float
    degree: DegreeResult
    rows: tuple[EtaCheck, ...]
    rel_tol: float
    abs_tol: float

    @property
    def all_passed(self) -> bool:
        return self.degree.valid and all(r.passed for r in self.rows)

    @property
    def all_resolved(self) -> bool:
        return all(r.resolved for r in self.rows)


def verify_integral_formula(
    surface: ChartedHypersurface,
    field: TangentField,
    grid: QuadratureGrid,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float | None = None,
    k="all",
    workers: int | None = None,
) -> VerificationReport:
    """Check every invariant integral against its exact predicted value.

    One pass over the grid computes the surface volume and all invariants;
    the degree is extracted from the k = 0 integral.  A row passes when
    its deviation from the prediction is within max(abs_tol, rel_tol *
    |prediction|); it is additionally marked unresolved when the
    half-resolution error estimate exceeds the same bound.  The default
    absolute tolerance is 1e-6 times the measured surface volume.
    """
    n = surface.n_intrinsic
    ks = _select_ks(n, k)

    def func(ci, U):
        batch = shape_data_batch(surface, field, ci, U)
        vals = eta_all(ColumnSystem.from_shape_data(batch.data)).values
        ones = np.ones((vals.shape[0], 1))
        return np.concatenate([ones, vals], axis=1), batch.volume_factor

    values = _integrate_vector(surface, func, grid, workers)
    halves = _integrate_vector(surface, func, grid.half(surface), workers)

    volume = float(values[0])
    if abs_tol is None:
        abs_tol = DEFAULT_ABS_TOL_VOLUME_FACTOR * volume

    deg = _degree_from_raw(values[1] / sphere_volume(n + 1))
    if not deg.valid:
        raise NonIntegerDegree(
            f"degree integral {deg.raw:.6g} is {deg.residual:.3g} "
            "away from the nearest integer"
        )

    rows = []
    for i in ks:
        integral = float(values[1 + i])
        est = float(abs(values[1 + i] - halves[1 + i]))
        predicted = predicted_integral(n, i, deg.rounded)
        abs_dev = abs(integral - predicted)
        rel_dev = abs_dev / abs(predicted) if predicted != 0.0 else None
        bound = max(abs_tol, rel_tol * abs(predicted))
        rows.append(EtaCheck(
            k=i,
            integral=integral,
            predicted=predicted,
            abs_dev=abs_dev,
            rel_dev=rel_dev,
            passed=abs_dev <= bound,
            estimated_error=est,
            resolved=est <= bound,
        ))

    return VerificationReport(
        surface_key=surface.metadata.key,
        field_key=field.key,
        n=n,
        grid_counts=grid.counts,
        volume=volume,
        degree=deg,
        rows=tuple(rows),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


@dataclass(frozen=True)
class MilnorInput:
    """Degree plus Betti data for the degree constraints."""

    d: int
    betti: tuple[int, ...]
    oriented: bool = True

    def __post_init__(self):
        if any(b < 0 for b in self.betti):
            raise ValueError("Betti numbers must be non-negative")


@dataclass(frozen=True)
class MilnorReport:
    d: int
    beta_sum: int
    parity_ok: bool       # 2d == beta mod 2
    bound_ok: bool        # 2|d| <= beta
    oriented_bound_ok: bool | None  # 2 - beta/2 <= d <= beta/2 (oriented only)

    @property
    def all_ok(self) -> bool:
        checks = [self.parity_ok, self.bound_ok]
        if self.oriented_bound_ok is not None:
            checks.append(self.oriented_bound_ok)
        return all(checks)


def milnor_constraints(inp: MilnorInput) -> MilnorReport:
    """Betti-number constraints on the normal degree.

    Checks 2d = beta(M) mod 2 and 2|d| <= beta(M) with beta(M) the sum of
    the Betti numbers, plus the oriented two-sided bound
    2 - beta/2 <= d <= beta/2 when the oriented flag is set.  Betti
    sequences of length dim M + 1 are accepted and summed in full.
    """
    beta = int(sum(inp.betti))
    d = int(inp.d)
    parity_ok = (2 * d - beta) % 2 == 0
    bound_ok = 2 * abs(d) <= beta
    oriented_ok = None
    if inp.oriented:
        oriented_ok = (2.0 - 0.5 * beta) <= d <= 0.5 * beta
    return MilnorReport(d=d, beta_sum=beta, parity_ok=parity_ok,
                        bound_ok=bound_ok, oriented_bound_ok=oriented_ok)


@dataclass(frozen=True)
class FoliationReport:
    """Integrability defect and rank statistics of the a-matrix.

    The hypothesis flag is set when the orthogonal distribution of the
    field is integrable (max defect below the tolerance) and the rank of
    the tangential derivative matrix never exceeds n - 2; in that case the
    normal-map degree must vanish, and the cross-checked degree is
    reported alongside.
    """

    surface_key: str
    field_key: str
    n: int
    samples: int
    max_defect: float
    max_rank: int
    rank_threshold: int          # n - 2 in this artifact's convention
    integrable: bool
    hypothesis: bool
    degree_zero_concluded: bool
    degree: DegreeResult | None  # cross-check, only run when hypothesis holds
    consistent: bool             # hypothesis implies degree 0

    @property
    def note(self) -> str:
        return (
            "hypothesis: the tangential derivative matrix of the field is "
            f"symmetric (defect < {FOLIATION_DEFECT_TOL:g}) and has rank at most "
            f"n-2 = {self.rank_threshold} at every sample; if it holds, the "
            "normal-map degree is zero"
        )


def foliation_obstruction_report(
    surface: ChartedHypersurface,
    field: TangentField,
    grid: QuadratureGrid,
    workers: int | None = None,
    defect_tol: float = FOLIATION_DEFECT_TOL,
    rank_rel_tol: float = RANK_REL_TOL,
    rank_abs_tol: float = RANK_ABS_TOL,
    cross_check: bool = True,
) -> FoliationReport:
    """Sample the field's tangential derivative matrix over a grid.

    At each sample point the integrability defect (max-entry norm of
    a - a^T) and the numerical rank of a are computed; ranks count
    singular values above rank_rel_tol times the largest, with rank 0
    when all fall below rank_abs_tol absolutely.
    """
    _check_grid(surface, grid)
    n = surface.n_intrinsic

    def worker(task):
        ci, start = task
        pts = grid.charts[ci].points[start:start + BLOCK]
        try:
            batch = shape_data_batch(surface, field, ci, pts)
        except CurvintError as exc:
            raise type(exc)(f"chart {ci}: {exc}") from exc
        a = batch.data.a
        defect = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
        sv = np.linalg.svd(a, compute_uv=False)
        smax = sv[..., 0]
        rank = np.sum(sv > rank_rel_tol * smax[..., None], axis=-1)
        rank = np.where(smax < rank_abs_tol, 0, rank)
        return np.array([np.max(defect), float(np.max(rank))])

    parts = _run_blocks(_block_tasks(grid), worker, workers)
    maxes = np.max(np.stack(parts, axis=0), axis=0)
    max_defect = float(maxes[0])
    max_rank = int(maxes[1])

    integrable = max_defect < defect_tol
    threshold = n - 2
    hypothesis = integrable and max_rank <= threshold

    deg = None
    consistent = True
    if hypothesis and cross_check:
        deg = gauss_degree(surface, grid, workers=workers)
        consistent = deg.rounded == 0

    return FoliationReport(
        surface_key=surface.metadata.key,
        field_key=field.key,
        n=n,
        samples=grid.total_points,
        max_defect=max_defect,
        max_rank=max_rank,
        rank_threshold=threshold,
        integrable=integrable,
        hypothesis=hypothesis,
        degree_zero_concluded=hypothesis,
        degree=deg,
        consistent=consistent,
    )
