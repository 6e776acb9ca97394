"""Thresholding operators and spectral routines against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cscbench.errors import (
    ConvergenceError,
    InvalidThresholdError,
    MatrixSizeError,
    ShapeError,
)
from cscbench.numeric import (
    EIGS_MAX_DIM,
    relu,
    soft_threshold,
    spectral_lmax,
    symmetric_eigs,
)
from cscbench_oracles import soft_threshold_nonneg

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = hnp.arrays(np.float64, st.integers(1, 20), elements=finite_floats)


def _soft_scalar(z, b):
    # independent piecewise definition
    if z > b:
        return z - b
    if z < -b:
        return z + b
    return 0.0


@given(vectors, st.floats(min_value=0.0, max_value=1e3))
def test_soft_threshold_matches_piecewise_definition(z, b):
    got = soft_threshold(z, b)
    want = np.array([_soft_scalar(v, b) for v in z])
    assert np.allclose(got, want, atol=1e-12)


@given(vectors, st.floats(min_value=0.0, max_value=1e3))
def test_soft_threshold_nonneg_is_relu_of_shift(z, b):
    assert np.array_equal(soft_threshold_nonneg(z, b), relu(z - b))


@given(vectors, st.floats(min_value=0.0, max_value=1e3))
def test_soft_threshold_shrinks_toward_zero(z, b):
    out = soft_threshold(z, b)
    assert np.all(np.abs(out) <= np.abs(z) + 1e-15)
    assert np.all(out * z >= 0.0)  # never flips sign


def test_soft_threshold_vector_threshold():
    z = np.array([3.0, -3.0, 0.5])
    b = np.array([1.0, 2.0, 1.0])
    assert np.array_equal(soft_threshold(z, b), [2.0, -1.0, 0.0])


def test_negative_threshold_rejected():
    with pytest.raises(InvalidThresholdError):
        soft_threshold(np.ones(3), -0.1)
    with pytest.raises(InvalidThresholdError):
        soft_threshold_nonneg(np.ones(3), np.array([0.1, -0.1, 0.1]))


def test_threshold_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        soft_threshold(np.ones(3), np.ones(4))


def test_relu_clips_negatives():
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


# -- spectral_lmax ------------------------------------------------------------


def test_spectral_lmax_matches_dense_eigensolver(rng):
    for _ in range(10):
        n = int(rng.integers(2, 15))
        a = rng.standard_normal((n, n))
        gram = a.T @ a
        want = float(np.linalg.eigvalsh(gram)[-1])  # independent oracle
        got = spectral_lmax(gram, n)
        assert got == pytest.approx(want, abs=1e-8 * max(1.0, want))


def test_spectral_lmax_accepts_callable_and_apply_object(rng):
    a = rng.standard_normal((6, 6))
    gram = a.T @ a
    want = spectral_lmax(gram, 6)

    assert spectral_lmax(lambda v: gram @ v, 6) == pytest.approx(want, abs=1e-8)

    class Op:
        def apply(self, v):
            return gram @ v

    assert spectral_lmax(Op(), 6) == pytest.approx(want, abs=1e-8)


def test_spectral_lmax_zero_operator():
    assert spectral_lmax(np.zeros((4, 4)), 4) == 0.0


def test_spectral_lmax_identity():
    assert spectral_lmax(np.eye(5), 5) == pytest.approx(1.0, abs=1e-12)


def test_spectral_lmax_dimension_validation():
    with pytest.raises(ShapeError):
        spectral_lmax(np.eye(3), 0)
    with pytest.raises(ShapeError):
        spectral_lmax(np.eye(3), 4)


def test_spectral_lmax_nonconvergence_raises():
    a = np.diag([1.0, 0.5])  # estimate still moving after 3 iterations
    with pytest.raises(ConvergenceError) as err:
        spectral_lmax(a, 2, tol=0.0, max_iter=3, seed=1)
    assert err.value.last_iterate is not None


# -- symmetric_eigs -----------------------------------------------------------


def _charpoly_roots(mat):
    # independent oracle: eigenvalues as roots of the characteristic
    # polynomial, computed by the Faddeev-LeVerrier recurrence
    n = mat.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(mat)
    for k in range(1, n + 1):
        m = mat @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(mat @ m) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def test_symmetric_eigs_matches_charpoly_roots(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        sym = 0.5 * (a + a.T)
        got = symmetric_eigs(sym)
        assert np.allclose(got, _charpoly_roots(sym), atol=1e-8)


def test_symmetric_eigs_matches_lapack(rng):
    for _ in range(5):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        sym = a + a.T
        assert np.allclose(symmetric_eigs(sym), np.linalg.eigvalsh(sym), atol=1e-9)


def test_symmetric_eigs_diagonal_exact():
    d = np.diag([3.0, -1.0, 2.0])
    assert np.array_equal(symmetric_eigs(d), [-1.0, 2.0, 3.0])


def test_symmetric_eigs_rejects_nonsymmetric():
    with pytest.raises(ShapeError):
        symmetric_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetric_eigs_rejects_nonsquare():
    with pytest.raises(ShapeError):
        symmetric_eigs(np.ones((2, 3)))


def test_symmetric_eigs_size_limit():
    big = EIGS_MAX_DIM + 1
    with pytest.raises(MatrixSizeError):
        symmetric_eigs(np.eye(big))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetric_eigs_rejects_non_finite(bad):
    # LAPACK returns a finite spectrum ([0, -0] for NaN) instead of failing
    with pytest.raises(ShapeError):
        symmetric_eigs(np.array([[bad, 0.0], [0.0, 1.0]]))
