"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into ``cscbench``: the convolution matrix is built from
the kernel taps by placing each dilated kernel on a padded canvas, the
Lasso optimum comes from scipy (NNLS on the least-distance dual, or
L-BFGS-B for large problems) with a dual certificate, and the ISTA/FISTA
rate bounds are the closed forms of Beck & Teboulle (2009).
"""

from __future__ import annotations

import numpy as np

VALID = "valid"
SAME = "same"


def conv_matrix(taps, dilation, input_shape, padding):
    """Dense D of a dilated convolutional dictionary, built from its taps.

    ``taps`` has shape (width, *k_spatial, c_in). Column ``p * width + j``
    is kernel j, dilated, placed at output position p (row-major over the
    output grid) on the zero-padded input and cropped back to the input.
    Rows index the signal position-major: ``position * c_in + channel``.
    "same" pads (extent - 1) // 2 on the left and the rest on the right.
    """
    taps = np.asarray(taps, dtype=float)
    width, k_spatial, c_in = taps.shape[0], taps.shape[1:-1], taps.shape[-1]
    spatial = tuple(int(n) for n in input_shape[:-1])
    if int(input_shape[-1]) != c_in or len(spatial) != len(k_spatial):
        raise ValueError("taps do not match the input shape")
    extent = tuple(dilation * (k - 1) + 1 for k in k_spatial)
    if padding == VALID:
        left = (0,) * len(spatial)
        out = tuple(n - e + 1 for n, e in zip(spatial, extent))
    elif padding == SAME:
        left = tuple((e - 1) // 2 for e in extent)
        out = spatial
    else:
        raise ValueError(f"unknown padding {padding!r}")
    dilated = np.zeros((width,) + extent + (c_in,))
    dilated[(slice(None),) + (slice(None, None, dilation),) * len(extent)] = taps
    canvas_shape = (width,) + tuple(o + e - 1 for o, e in zip(out, extent)) + (c_in,)
    crop = (slice(None),) + tuple(slice(l, l + n) for l, n in zip(left, spatial))
    rows = int(np.prod(spatial)) * c_in
    mat = np.zeros((rows, int(np.prod(out)) * width))
    for p_idx, p in enumerate(np.ndindex(*out)):
        canvas = np.zeros(canvas_shape)
        canvas[(slice(None),) + tuple(slice(q, q + e) for q, e in zip(p, extent))] = dilated
        mat[:, p_idx * width:(p_idx + 1) * width] = canvas[crop].reshape(width, rows).T
    return mat


def dictionary_matrix(dictionary):
    """Dense matrix of a ConvDictionary, or [I | D] of an MSDDictionary.

    Reads only the public geometry (``kernel_array``, ``dilation``,
    ``input_shape``, ``padding``) of the program's objects.
    """
    conv = getattr(dictionary, "conv", None)
    bank = conv if conv is not None else dictionary
    mat = conv_matrix(bank.kernel_array(), bank.dilation, bank.input_shape, bank.padding)
    if conv is not None:
        mat = np.hstack([np.eye(mat.shape[0]), mat])
    return mat


def lambda_max(mat):
    """Largest eigenvalue of D^T D by LAPACK, on the smaller Gram matrix."""
    mat = np.asarray(mat, dtype=float)
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    return float(np.linalg.eigvalsh(gram)[-1])


def lasso_value(mat, signals, beta, codes):
    """Per-column 0.5 ||x - D g||^2 + beta ||g||_1."""
    residual = signals - mat @ codes
    return 0.5 * np.sum(residual**2, axis=0) + beta * np.sum(np.abs(codes), axis=0)


def dual_bound(mat, signals, beta, codes, nonneg):
    """Per-column lower bound on the Lasso optimum from a primal point.

    The dual of min 0.5||x - D g||^2 + beta||g||_1 is max <x, u> - 0.5||u||^2
    over ||D^T u||_inf <= beta (D^T u <= beta with g >= 0). Scaling the
    residual into that set gives a feasible u, whose value bounds F* below.
    """
    residual = signals - mat @ codes
    corr = mat.T @ residual
    reach = np.max(corr if nonneg else np.abs(corr), axis=0) / beta
    u = residual / np.maximum(reach, 1.0)
    return np.sum(signals * u, axis=0) - 0.5 * np.sum(u**2, axis=0)


def _ldp_solve(mat, signal, beta, nonneg):
    """Exact Lasso minimiser through least-distance programming.

    The dual of the Lasso projects x onto {u : |D^T u| <= beta} (D^T u <=
    beta when g >= 0); with v = u - x that is min ||v|| s.t. G v >= h, which
    Lawson & Hanson solve by one NNLS: min ||E w - f||, w >= 0, with
    E = [G^T; h^T] and f = e_last. The constraint multipliers w / (1 - h'w)
    are the Lasso codes.
    """
    from scipy.optimize import nnls

    corr = mat.T @ signal
    if nonneg:
        g_mat, h = -mat.T, corr - beta
    else:
        g_mat, h = np.vstack([-mat.T, mat.T]), np.concatenate([corr - beta, -corr - beta])
    e_mat = np.vstack([g_mat.T, h[None, :]])
    target = np.zeros(e_mat.shape[0])
    target[-1] = 1.0
    w, _ = nnls(e_mat, target, maxiter=50 * e_mat.shape[1])
    lam = w / (1.0 - h @ w)
    n = mat.shape[1]
    return lam if nonneg else lam[:n] - lam[n:]


def _lbfgs_solve(mat, signal, beta):
    """Nonnegative Lasso by scipy's L-BFGS-B, then a Newton solve of the
    optimality conditions on its support (kept if it stays feasible).
    Returns (polished or None, L-BFGS-B point)."""
    from scipy.linalg import LinAlgError, solve
    from scipy.optimize import minimize
    from scipy.sparse import csr_matrix

    sparse = csr_matrix(mat)
    sparse_t = sparse.T.tocsr()

    def fun(g):
        residual = sparse @ g - signal
        return 0.5 * residual @ residual + beta * np.sum(g), sparse_t @ residual + beta

    g = minimize(fun, np.zeros(mat.shape[1]), jac=True, method="L-BFGS-B",
                 bounds=[(0.0, None)] * mat.shape[1],
                 options={"maxiter": 20_000, "ftol": 1e-12, "gtol": 1e-8}).x
    support = np.flatnonzero(g > 0.0)
    for _ in range(5):
        sub = mat[:, support]
        try:
            sol = solve(sub.T @ sub, sub.T @ signal - beta, assume_a="pos")
        except LinAlgError:
            break
        if np.all(sol > 0.0):
            polished = np.zeros_like(g)
            polished[support] = sol
            return polished, g
        support = support[sol > 0.0]
    return None, g


def lasso_optimum(mat, signals, beta, nonneg):
    """(codes, upper, lower) for each column's Lasso problem: minimisers,
    their objective values, and the dual certificate bounding F* below.

    Up to 256 rows the minimiser is exact (least-distance programming via
    scipy's NNLS). Larger problems, whose supports run to thousands of
    columns, take L-BFGS-B plus a support solve, and must be nonnegative.
    """
    mat = np.asarray(mat, dtype=float)
    single = np.ndim(signals) == 1
    x = np.asarray(signals, dtype=float).reshape(mat.shape[0], -1)
    if mat.shape[0] <= 256:
        codes = np.column_stack([_ldp_solve(mat, x[:, b], beta, nonneg)
                                 for b in range(x.shape[1])])
    elif nonneg:
        columns = []
        for b in range(x.shape[1]):
            # keep whichever of the two points has the tighter certificate
            cands = np.column_stack([g for g in _lbfgs_solve(mat, x[:, b], beta)
                                     if g is not None])
            xb = np.repeat(x[:, b:b + 1], cands.shape[1], axis=1)
            gaps = lasso_value(mat, xb, beta, cands) - dual_bound(mat, xb, beta, cands, True)
            columns.append(cands[:, int(np.argmin(gaps))])
        codes = np.column_stack(columns)
    else:
        raise ValueError("signed Lasso oracle is limited to 256 rows")
    upper = lasso_value(mat, x, beta, codes)
    lower = dual_bound(mat, x, beta, codes, nonneg)
    if single:
        return codes[:, 0], float(upper[0]), float(lower[0])
    return codes, upper, lower


def ista_rate_bound(lipschitz, xstar_sq, k):
    """F(x_k) - F* <= L ||x_0 - x*||^2 / (2k) for ISTA with step 1/L."""
    return lipschitz * xstar_sq / (2.0 * k)


def fista_rate_bound(lipschitz, xstar_sq, k):
    """F(x_k) - F* <= 2 L ||x_0 - x*||^2 / (k + 1)^2 for FISTA with step 1/L."""
    return 2.0 * lipschitz * xstar_sq / (k + 1.0) ** 2


def nonneg_ista(mat, signal, scale, thresholds, steps):
    """``steps`` nonnegative ISTA steps from zero: g <- max(g - c D^T(Dg - x) - t, 0)."""
    g = np.zeros(mat.shape[1])
    for _ in range(steps):
        g = np.maximum(g - scale * (mat.T @ (mat @ g - signal)) - thresholds, 0.0)
    return g
