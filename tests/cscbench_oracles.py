"""Reference operators that only the tests use.

Not named ``oracles``: ``perfbench/oracles.py`` holds that module name, and
one pytest session over both test directories would import only one of them.
"""

import itertools

import numpy as np

from cscbench.numeric import _check_threshold


def soft_threshold_nonneg(z, b):
    """S_b^+(z) = max(z - b, 0), i.e. ReLU(z - b)."""
    z = np.asarray(z, dtype=float)
    b = _check_threshold(b, z.shape)
    return np.maximum(z - b, 0.0)


def _strided_tap_slices(bank):
    """Per tap, a (code-grid slice, signal slice) pair, batch axis first: the
    positions whose input for that tap lies inside the signal, and those
    inputs, worked out per axis."""
    axes = []
    for k, dim, out, left in zip(
        bank.kernel_spatial, bank.spatial_shape, bank.out_spatial, bank.pad_left
    ):
        shifts = [t * bank.dilation - left for t in range(k)]
        bounds = [(max(0, -sh), max(0, -sh, min(out, dim - sh)), sh) for sh in shifts]
        axes.append([(slice(lo, hi), slice(lo + sh, hi + sh)) for lo, hi, sh in bounds])
    return [
        tuple((slice(None), *sl) for sl in zip(*tap)) for tap in itertools.product(*axes)
    ]


def strided_apply_array(bank, code):
    """D applied to a batch of code arrays (B, *out, width): per tap one GEMM
    (B * n_positions, width) @ (width, c), added through strided views into
    the signal where that tap lands inside it."""
    code = np.asarray(code, dtype=float)
    flat = code.reshape(-1, bank.width)
    signal = np.zeros((len(code), *bank.input_shape))
    contrib = np.empty((len(flat), bank.channels))
    tap_blocks = bank.taps.reshape(bank.width, -1, bank.channels)
    for t_idx, (code_sl, signal_sl) in enumerate(_strided_tap_slices(bank)):
        np.matmul(flat, tap_blocks[:, t_idx], out=contrib)
        signal[signal_sl] += contrib.reshape(len(code), *bank.out_spatial, bank.channels)[code_sl]
    return signal


def strided_adjoint_array(bank, x):
    """D.T applied to a batch of signal arrays (B, *spatial, c): one GEMM of
    zero-filled windows, filled through strided views, with the taps."""
    x = np.asarray(x, dtype=float)
    slices = _strided_tap_slices(bank)
    windows = np.zeros((len(x), *bank.out_spatial, len(slices), bank.channels))
    for t_idx, (code_sl, signal_sl) in enumerate(slices):
        windows[(*code_sl, t_idx)] = x[signal_sl]
    code = windows.reshape(len(x) * bank.n_positions, -1) @ bank.taps.reshape(bank.width, -1).T
    return code.reshape(len(x), *bank.out_spatial, bank.width)
