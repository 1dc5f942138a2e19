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
from itertools import combinations

import numpy as np

from .errors import IndexOutOfRange, NonIntegerDegree
from .fields import TangentField, _chart_forms, _reduced_a
from .fields import shape_data_batch  # noqa: F401  perfbench's tracer wraps it here
from .invariants import eta_all  # noqa: F401  perfbench's tracer wraps it here
from .manifold import ChartedHypersurface, _shape_det, shape_determinant_batch
from .quadrature import (
    QuadratureGrid, _eta_integrals, _integrate_vector, _Kernel, _select_ks)
from .quadrature import _run_blocks  # noqa: F401  perfbench's tracer wraps it here

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


def _degree_from_integral(integral: float, n: int) -> DegreeResult:
    """Degree from the det(h) integral over an (n+1)-surface; NonIntegerDegree if off."""
    raw = integral / sphere_volume(n + 1)
    if not np.isfinite(raw):
        raise NonIntegerDegree(f"degree integral {raw} is not finite")
    rounded = int(np.rint(raw))
    result = DegreeResult(raw=float(raw), rounded=rounded,
                          residual=float(abs(raw - rounded)))
    if not result.valid:
        raise NonIntegerDegree(
            f"degree integral {result.raw:.6g} is {result.residual:.3g} "
            "away from the nearest integer"
        )
    return result


def _degree_kernel(surface, field, ci, U, ws):
    """Block kernel of ``gauss_degree``: det h per point."""
    det, volume_factor = shape_determinant_batch(surface, ci, U, ws=ws)
    return det[:, None], volume_factor, np.empty((len(U), 0))


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

    (total,), _ = _integrate_vector(surface, _Kernel(_degree_kernel, surface), grid, workers)
    return _degree_from_integral(total, surface.n_intrinsic)


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

    values, halves = _eta_integrals(surface, field, grid, workers)

    volume = float(values[0])
    if abs_tol is None:
        abs_tol = DEFAULT_ABS_TOL_VOLUME_FACTOR * volume

    deg = _degree_from_integral(values[1], n)

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
    normal-map degree must vanish, and the degree read off the det(h)
    integral over the same samples is reported alongside as a cross-check.
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
    degree: DegreeResult | None  # cross-check, only when hypothesis holds
    consistent: bool             # hypothesis implies degree 0

    @property
    def note(self) -> str:
        return (
            "hypothesis: the tangential derivative matrix of the field is "
            f"symmetric (defect < {FOLIATION_DEFECT_TOL:g}) and has rank at most "
            f"n-2 = {self.rank_threshold} at every sample; if it holds, the "
            "normal-map degree is zero"
        )


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of (B, n, n) matrices, largest first.

    Closed forms for n <= 2, so the rank does not depend on the LAPACK
    build there: |a| for n = 1, and for a = [[p, q], [r, s]] the sum and
    the absolute difference of hypot((p+s)/2, (r-q)/2) and
    hypot((p-s)/2, (r+q)/2).  LAPACK's SVD for n >= 3.
    """
    n = a.shape[-1]
    if n == 1:
        return np.abs(a[..., 0])
    if n > 2:
        return np.linalg.svd(a, compute_uv=False)
    p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    x = np.hypot(0.5 * (p + s), 0.5 * (r - q))
    y = np.hypot(0.5 * (p - s), 0.5 * (r + q))
    return np.stack([x + y, np.abs(x - y)], axis=-1)


def _rank(a: np.ndarray) -> np.ndarray:
    """Numerical rank of (B, n, n) a: singular values above RANK_REL_TOL
    times the largest, and 0 when the largest is below RANK_ABS_TOL."""
    sv = _singular_values(a)
    smax = sv[..., 0]
    rank = np.sum(sv > RANK_REL_TOL * smax[..., None], axis=-1)
    return np.where(smax < RANK_ABS_TOL, 0, rank)


def _defect(a: np.ndarray) -> np.ndarray:
    """sqrt(sum_{i<j} (a_ij - a_ji)^2) for (B, n, n) a: |a - a^T|_F / sqrt 2.

    It does not depend on the orthonormal basis a is written in.  For n = 2
    it is |a_01 - a_10|, the max-entry norm of a - a^T, and for n = 1 it
    is 0.
    """
    total = np.zeros(a.shape[0])
    for i, j in combinations(range(a.shape[-1]), 2):
        d = a[:, i, j] - a[:, j, i]
        total += d * d
    return np.sqrt(total)


def _foliation_kernel(surface, field, ci, U, ws):
    """Block kernel of ``foliation_obstruction_report``: det h per point,
    and the defect and rank of a as peaks."""
    geo, _, _, D, w = _chart_forms(surface, field, ci, U, ws)
    a = _reduced_a(geo.metric_chol, D, w)
    return (_shape_det(geo)[:, None], geo.volume_factor,
            np.stack([_defect(a), _rank(a)], axis=-1))


def foliation_obstruction_report(
    surface: ChartedHypersurface,
    field: TangentField,
    grid: QuadratureGrid,
    workers: int | None = None,
) -> FoliationReport:
    """Sample the field's tangential derivative matrix over a grid.

    One pass over the grid reads the chart forms once per sample and takes
    a from them in an orthonormal basis of v^perp (``fields._reduced_a``),
    with no adapted frame.  At each sample the integrability defect and
    the numerical rank of a are peaks, reduced to their maxima.  The
    defect is ``sqrt(sum_{i<j} (a_ij - a_ji)^2)`` (``_defect``), the norm
    of d(omega) on v^perp in the Frobenius condition omega ^ d(omega) = 0
    (Candel & Conlon, *Foliations I*, AMS GSM 23, 2000); it does not
    depend on the basis, and for n <= 2 it equals the max-entry norm of
    a - a^T in any orthonormal frame.  Ranks (``_rank``) count singular
    values above RANK_REL_TOL times the largest, with rank 0 when all fall
    below RANK_ABS_TOL absolutely.  For n <= 2 the singular values come in
    closed form (``_singular_values``), so no sample calls LAPACK; a
    non-finite a cannot reach them, because the chart forms raise first,
    naming the point.  The same pass integrates det(h) = det(-L) / det g
    (``manifold._shape_det``, the integrand of ``gauss_degree`` and the
    eta_0 that ``verify_integral_formula`` integrates), and when the
    hypothesis holds the cross-check degree is read off that integral.
    """
    n = surface.n_intrinsic
    (det_integral,), peaks = _integrate_vector(
        surface, _Kernel(_foliation_kernel, surface, field), grid, workers)
    max_defect = float(peaks[0])
    max_rank = int(peaks[1])

    integrable = max_defect < FOLIATION_DEFECT_TOL
    threshold = n - 2
    hypothesis = integrable and max_rank <= threshold

    deg = None
    consistent = True
    if hypothesis:
        deg = _degree_from_integral(det_integral, n)
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
