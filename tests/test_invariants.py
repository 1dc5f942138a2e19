"""Mixed invariants: determinant sums, the tilt-map identity, oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvint as cv
from curvint.errors import IndexOutOfRange
from curvint.manifold import _det


def assert_close_to_lapack(value, H):
    """|value - LAPACK det H| within 1e-14 of Hadamard's bound prod_j ||H_j||."""
    assert abs(value - np.linalg.det(H)) <= 1e-14 * np.prod(np.linalg.norm(H, axis=0))


def random_system(rng, n, chart=False):
    """Random column data: symmetric H, free V, entries uniform in [-1, 1].

    V has n columns (frame form), or p = n + 1 with ``chart``.
    """
    p = n + 1
    h = rng.uniform(-1.0, 1.0, (p, p))
    h = 0.5 * (h + h.T)
    V = rng.uniform(-1.0, 1.0, (p, p if chart else n))
    return cv.ColumnSystem(H=h, V=V)


HOPF_LIKE = cv.ColumnSystem(
    H=np.eye(3),
    V=np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]]),
)


def test_eta_hopf_like_system():
    """Hand values for h = I, a = [[0,1],[-1,0]], vvec = 0."""
    assert cv.eta(0, HOPF_LIKE) == pytest.approx(1.0, abs=1e-15)
    assert cv.eta(1, HOPF_LIKE) == pytest.approx(0.0, abs=1e-15)
    assert cv.eta(2, HOPF_LIKE) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(cv.eta_all(HOPF_LIKE).values, [1.0, 0.0, 1.0],
                               atol=1e-15)


def test_eta_zero_field_columns():
    rng = np.random.default_rng(0)
    cols = random_system(rng, 3)
    cols = cv.ColumnSystem(H=cols.H, V=np.zeros_like(cols.V))
    for k in range(1, 4):
        assert cv.eta(k, cols) == 0.0
    assert cv.eta(0, cols) == _det(cols.H)
    assert_close_to_lapack(cv.eta(0, cols), cols.H)


def test_eta_n1_single_summand():
    rng = np.random.default_rng(1)
    cols = random_system(rng, 1)
    M = np.column_stack([cols.V[:, 0], cols.H[:, 1]])
    assert cv.eta(1, cols) == pytest.approx(np.linalg.det(M), rel=1e-14)


def test_eta_index_errors():
    with pytest.raises(IndexOutOfRange):
        cv.eta(-1, HOPF_LIKE)
    with pytest.raises(IndexOutOfRange):
        cv.eta(3, HOPF_LIKE)


def test_eta0_is_direct_determinant():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        cols = random_system(rng, n)
        assert cv.eta(0, cols) == _det(cols.H)
        assert cv.eta_all(cols).values[0] == _det(cols.H)
        assert_close_to_lapack(cv.eta(0, cols), cols.H)


def test_eta_all_matches_eta_bitwise():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        cols = random_system(rng, n)
        values = cv.eta_all(cols).values
        for k in range(n + 1):
            assert values[k] == cv.eta(k, cols)


def test_eta_deterministic_repeat():
    rng = np.random.default_rng(4)
    cols = random_system(rng, 3)
    first = cv.eta_all(cols).values
    second = cv.eta_all(cols).values
    assert np.array_equal(first, second)


def test_tilt_jacobian_t0_gives_eta0():
    rng = np.random.default_rng(5)
    cols = random_system(rng, 2)
    _, det = cv.tilt_jacobian(cols, 0.0)
    assert det == pytest.approx(cv.eta(0, cols), rel=1e-14)
    with pytest.raises(ValueError, match="frame-form"):
        cv.tilt_jacobian(random_system(rng, 2, chart=True), 0.0)


def test_tilt_jacobian_hopf_t1():
    _, det = cv.tilt_jacobian(HOPF_LIKE, 1.0)
    assert det == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       t=st.sampled_from([0.1, 0.5, 1.0, 2.0]))
def test_tilt_determinant_identity(seed, n, t):
    """det of the tilted differential equals sqrt(1+t^2) * sum eta_k t^k."""
    rng = np.random.default_rng(seed)
    cols = random_system(rng, n)
    _, det = cv.tilt_jacobian(cols, t)
    values = cv.eta_all(cols).values
    rhs = np.sqrt(1.0 + t * t) * sum(values[k] * t**k for k in range(n + 1))
    assert abs(det - rhs) <= 1e-10 * max(1.0, abs(det), abs(rhs))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_eta_multilinear_scaling(seed, n):
    """Scaling every V column by s multiplies eta_k by s^k."""
    s = 2.0
    rng = np.random.default_rng(seed)
    cols = random_system(rng, n)
    scaled = cv.ColumnSystem(H=cols.H, V=s * cols.V)
    base = cv.eta_all(cols).values
    got = cv.eta_all(scaled).values
    expect = base * s ** np.arange(n + 1)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-13)


def interpolated_eta(cols):
    """Independent oracle: polynomial interpolation of the tilt determinant.

    Frame form samples det/sqrt(1+t^2) of ``tilt_jacobian``, a polynomial
    of degree n.  Chart form samples LAPACK's det(H + t V), of degree p;
    its t^p coefficient, det V, is not an eta and is dropped.
    """
    n, m = cols.n, cols.V.shape[-1]
    ts = 0.25 + 0.5 * np.arange(m + 1)
    if m == n:
        samples = [cv.tilt_jacobian(cols, t)[1] / np.sqrt(1.0 + t * t) for t in ts]
    else:
        samples = [np.linalg.det(cols.H + t * cols.V) for t in ts]
    # solve the Vandermonde system for the coefficients
    Vm = np.vander(ts, m + 1, increasing=True)
    return np.linalg.solve(Vm, np.array(samples))[:n + 1]


def test_eta_against_interpolation_oracle():
    for chart in (False, True):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                cols = random_system(rng, n, chart)
                np.testing.assert_allclose(cv.eta_all(cols).values,
                                           interpolated_eta(cols),
                                           atol=1e-9, rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eta_batched_matches_single(n):
    rng = np.random.default_rng(7)
    p, B = n + 1, 17
    H = rng.uniform(-1, 1, (B, p, p))
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    for m in (n, p):  # frame form, then chart form
        V = rng.uniform(-1, 1, (B, p, m))
        batch = cv.eta_all(cv.ColumnSystem(H=H, V=V)).values
        assert batch.shape == (B, n + 1)
        for i in range(B):
            single = cv.eta_all(cv.ColumnSystem(H=H[i], V=V[i])).values
            assert np.array_equal(batch[i], single)
