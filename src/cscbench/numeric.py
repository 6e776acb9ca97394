"""Thresholding operators and spectral routines.

Everything here works on plain numpy arrays. Matrices are dense,
row-major, and assumed finite; sparse storage is out of scope.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidThresholdError,
    MatrixSizeError,
    ShapeError,
)

EIGS_MAX_DIM = 512  # rows limit of symmetric_eigs


def _check_threshold(b, shape):
    b = np.asarray(b, dtype=float)
    if b.ndim > 0:
        try:
            b = np.broadcast_to(b, shape)
        except ValueError as exc:
            raise ShapeError(
                f"threshold of shape {np.asarray(b).shape} does not broadcast "
                f"against values of shape {shape}"
            ) from exc
    if np.any(b < 0):
        raise InvalidThresholdError("soft threshold must be nonnegative")
    return b


def soft_threshold(z, b):
    """S_b(z): shrink toward zero by b, clipping |z| <= b to exactly 0."""
    z = np.asarray(z, dtype=float)
    return _shrink(z, _check_threshold(b, z.shape))


def _shrink(z, b):
    """``soft_threshold`` for an array ``z`` and a threshold that
    ``_check_threshold`` has passed for its shape."""
    return np.sign(z) * np.maximum(np.abs(z) - b, 0.0)


def relu(z):
    return np.maximum(np.asarray(z, dtype=float), 0.0)


def spectral_lmax(op, dim, tol=1e-10, max_iter=10_000, seed=0):
    """Largest eigenvalue of a symmetric PSD operator via power iteration.

    ``op`` may be a callable v -> Mv, an object exposing ``apply``, or a
    dense square ndarray. Symmetry/PSD-ness is the caller's contract.
    """
    if dim < 1:
        raise ShapeError("operator dimension must be >= 1")
    if callable(op):
        matvec = op
    elif hasattr(op, "apply"):
        matvec = op.apply
    else:
        mat = np.asarray(op, dtype=float)
        if mat.shape != (dim, dim):
            raise ShapeError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        matvec = mat.dot

    # All-ones direction plus a small seeded perturbation so a start vector
    # orthogonal to the top eigenvector cannot stall the iteration.
    v = np.ones(dim) + 1e-3 * np.random.default_rng(seed).standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = np.asarray(matvec(v), dtype=float)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0  # v is in the kernel; PSD input means lambda_max >= 0
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=v,
    )


def symmetric_eigs(mat, tol=1e-10):
    """All eigenvalues of a small symmetric matrix, ascending (LAPACK).

    Reserved for verification-scale matrices (<= EIGS_MAX_DIM rows);
    larger requests are rejected rather than silently slow.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > EIGS_MAX_DIM:
        raise MatrixSizeError(
            f"symmetric eigensolver is limited to {EIGS_MAX_DIM}x{EIGS_MAX_DIM}"
        )
    if not np.all(np.isfinite(a)):  # LAPACK would return a wrong, finite spectrum
        raise ShapeError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > tol * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (a + a.T))
