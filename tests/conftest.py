import dataclasses

import numpy as np
import pytest

import curvint as cv

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
