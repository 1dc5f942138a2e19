import dataclasses
import os

import numpy as np
import pytest

import curvint as cv
from curvint import manifold, quadrature
from curvint.fields import (
    FrameBatch, ShapeData, ShapeDataBatch, _chart_forms, _frame_vectors, field_batch,
    project_field_batch)
from curvint.manifold import geometry_batch

# every catalog (surface, field) pair
CATALOG_PAIRS = [
    ("sphere3", "hopf"),
    ("ellipsoid3", "hopf"),
    ("torus2", "theta"),
    ("revs1s2", "theta"),
    ("tube-t3", "fiber"),
]

_SEEDS = {
    "sphere3": 101,
    "ellipsoid3": 102,
    "torus2": 103,
    "revs1s2": 104,
    "tube-t3": 105,
}


def domain_samples(surface, count, seed=None, margin=0.05):
    """Pseudo-random chart points, inset from non-periodic boundaries."""
    chart = surface.charts[0]
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    per = np.asarray(chart.periodic)
    if seed is None:
        seed = _SEEDS[surface.metadata.key]
    rng = np.random.default_rng(seed)
    t = rng.random((count, surface.dim))
    lo_eff = np.where(per, lo, lo + margin * (hi - lo))
    hi_eff = np.where(per, hi, hi - margin * (hi - lo))
    return lo_eff + t * (hi_eff - lo_eff)


def without_second_partials(surface):
    """The surface with its charts rebuilt without analytic second partials."""
    return dataclasses.replace(surface, charts=tuple(
        dataclasses.replace(ch, second_partials=None) for ch in surface.charts))


def cofactor_det(M, rows, cols):
    """det M[..., rows, cols] by cofactor expansion along rows[0].

    The recursive expansion ``manifold._det`` and ``_inverse`` used before
    the minor table, kept verbatim as the reference for their bits.
    """
    if not rows:
        return np.ones(M.shape[:-2])
    if len(rows) == 1:
        return M[..., rows[0], cols[0]]
    if len(rows) == 2:
        (r, s), (a, b) = rows, cols
        return M[..., r, a] * M[..., s, b] - M[..., r, b] * M[..., s, a]
    total = 0.0
    for j, c in enumerate(cols):
        term = M[..., rows[0], c] * cofactor_det(M, rows[1:], cols[:j] + cols[j + 1:])
        total = total - term if j % 2 else total + term
    return total


def adjugate_inverse(M, det):
    """Inverse over the trailing (p, p) axes: adjugate over ``det`` = _det(M).

    Column j of the adjugate holds the signed minors of M without row j,
    from ``manifold._minors``.  No library pass forms an inverse; the
    references here read it through ``metric_inv``.
    """
    p = M.shape[-1]
    adj = np.empty(M.shape)
    for j in range(p):
        minors = manifold._minors(M[..., np.arange(p) != j, :])
        for i in range(p):
            minor = minors[tuple(c for c in range(p) if c != i)][0]
            adj[..., i, j] = -minor if (i + j) % 2 else minor
    return adj / det[..., None, None]


def metric_inv(geo):
    """(B, p, p) inverse metric of a GeometryBatch: the adjugate over ``_det``."""
    return adjugate_inverse(geo.metric, manifold._det(geo.metric))


def weingarten_dnormal(geo):
    """(B, p, q), row a = dN/du_a = -sum_{b,c} <N, F_ab> g^{bc} F_c."""
    coeff = np.swapaxes(metric_inv(geo) @ geo.second_form, -1, -2)
    return -coeff @ np.swapaxes(geo.jacobian, -1, -2)


def field_jacobian(field, ci, U):
    """A field's (B, q, p) parameter derivatives from its jacobian callable,
    batch-last, as ``field_batch`` reads them before forming (d raw)^T J."""
    return manifold._batch_last(field.ambient_jacobian(ci, U))


def ambient_shape_data(surface, field, ci, U):
    """Reference ShapeDataBatch assembled in the ambient space.

    The derivative of the normalized projected field is formed as ambient
    vectors from the field jacobian and the Weingarten derivative of the
    normal, then contracted against the adapted frame via the chart chain
    rule.  It shares only the geometry, the field values and the frame
    (``_frame_vectors`` of the chart forms' w) with ``shape_data_batch``,
    which reads the components off the chart forms instead.
    """
    U = np.asarray(U, dtype=float)
    geo = geometry_batch(surface, ci, U, coefficients=field.coefficients)
    n = surface.n_intrinsic

    raw, _ = field_batch(field, surface, geo, ci, U, form=False)
    rawJ = field_jacobian(field, ci, U)
    rn, P, Pn = project_field_batch(raw, geo, U)
    v = P / Pn[:, None]

    draw = np.swapaxes(rawJ, -1, -2)               # (B, p, q)
    N = geo.normal
    dN = weingarten_dnormal(geo)
    drn = np.einsum("xaq,xq->xa", draw, N) + np.einsum("xq,xaq->xa", raw, dN)
    dP = (draw
          - drn[:, :, None] * N[:, None, :]
          - rn[:, None, None] * dN)
    dv = (dP - np.einsum("xq,xaq->xa", v, dP)[:, :, None] * v[:, None, :]) / Pn[:, None, None]

    e = _frame_vectors(geo, _chart_forms(surface, field, ci, U)[4])
    frame = np.concatenate([e, v[:, None, :]], axis=1)  # (B, p, q), v last
    frame_t = np.ascontiguousarray(np.swapaxes(frame, -1, -2))

    # chart coordinates of the frame vectors, through the metric
    coeff = metric_inv(geo) @ (np.swapaxes(geo.jacobian, -1, -2) @ np.swapaxes(frame, -1, -2))
    ct = np.swapaxes(coeff, -1, -2)
    Dv = ct @ dv                                       # derivative of v along frame
    h_raw = (ct @ dN) @ frame_t
    h_t = np.swapaxes(h_raw, -1, -2)

    dv_frame = Dv @ frame_t
    return ShapeDataBatch(
        data=ShapeData(h=0.5 * (h_raw + h_t), a=dv_frame[:, :n, :n],
                       vvec=dv_frame[:, n, :n]),
        frame=FrameBatch(e=e, v=v, normal=N),
        h_asymmetry=np.max(np.abs(h_raw - h_t), axis=(-2, -1)),
        dv_e_dot_v=dv_frame[:, :n, n],
        dv_v_dot_v=dv_frame[:, n, n],
        volume_factor=geo.volume_factor,
    )


def counting_fork(monkeypatch):
    """Count the calls of os.fork, which still forks; return the count list."""
    calls, fork = [], os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture(autouse=True)
def no_worker_processes():
    """Each test starts with no worker process, so the first dispatch that
    needs them forks them: they see the module state the test patched, and
    the counts of forks and children start from nothing."""
    quadrature._stop_workers()


@pytest.fixture(scope="session")
def surfaces():
    return {name: cv.get_surface(name) for name in cv.surface_names()}


@pytest.fixture(scope="session")
def pairs(surfaces):
    out = []
    for skey, fkey in CATALOG_PAIRS:
        s = surfaces[skey]
        out.append((skey, fkey, s, cv.get_field(fkey, s)))
    return out
