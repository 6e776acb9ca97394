"""(Dilated) convolutional dictionaries and the dense-connection variant.

A convolutional dictionary D is the transpose of a convolutional matrix:
its columns are dilated, shifted copies of the kernels. ``apply`` is the
reconstruction direction (D @ code, a transposed convolution) and
``apply_adjoint`` is the analysis direction (D.T @ signal, a plain
correlation of the signal with the kernels).

Conventions, fixed package-wide:
  * signals are arrays of shape (*spatial, channels); their flat form is
    row-major, so all channels of one position are contiguous
    (position-major layout);
  * codes are position-major too: flat index = position * width + kernel;
  * stride is 1; padding is "valid" (no padding) or "same" (zero padding,
    output grid equals input grid);
  * an MSD dictionary is [I | D_conv] with "same" padding so the identity
    block aligns with the signal. Its code is the block concatenation
    (identity slot | conv slot);
  * the operators (``apply``, ``apply_adjoint`` and their array forms, here
    and for dense matrices) return fresh arrays that share no memory with
    their operand or the dictionary; ``pursuit.proximal_gradient`` relies
    on it when it updates their outputs in place. Zero padding is never
    stored: per tap, the operators read or write only the part of the
    signal that the tap reaches.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDictionaryError,
    MaterializationError,
    ShapeError,
)

MAX_DENSE_ENTRIES = 10_000_000

VALID = "valid"
SAME = "same"


def _as_batch(arr, shape, what):
    """``arr`` as a batch (B, *shape), and whether it came with that axis."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape == shape:
        return arr[None], False
    if arr.shape[1:] != shape:
        raise ShapeError(f"expected {what} of shape {shape} or a batch, got {arr.shape}")
    return arr, True


def _checked_taps(taps, dilation):
    """A bank's taps (width, *k_spatial, c_in) as a read-only C-ordered float
    copy, after the one check every kernel and bank goes through."""
    taps = np.array(taps, dtype=float, order="C")
    if taps.ndim < 3:
        raise ShapeError("kernel taps need at least (k, c_in) dimensions")
    if min(taps.shape) < 1:
        raise ShapeError("kernel dimensions must all be >= 1")
    if dilation < 1 or dilation != int(dilation):
        raise ShapeError("dilation must be a positive integer")
    if not np.all(np.isfinite(taps)):
        raise ShapeError("kernel taps must be finite")
    taps.flags.writeable = False
    return taps


def kernel_norms(taps):
    """Per-kernel Euclidean norms of taps (width, ...), shaped (width, 1, ...)
    to divide them: one BLAS dot per kernel, bitwise equal to
    ``np.linalg.norm`` of each kernel, which ``norm(..., axis=1)`` is not."""
    flat = taps.reshape(len(taps), math.prod(taps.shape[1:]))
    return np.sqrt(np.vecdot(flat, flat)).reshape(-1, *[1] * (taps.ndim - 1))


@dataclass(frozen=True)
class ConvKernel:
    """One dilated kernel: taps of shape (*k_spatial, c_in), dilation s >= 1."""

    taps: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        taps = _checked_taps(np.asarray(self.taps, dtype=float)[None], self.dilation)
        object.__setattr__(self, "taps", taps[0])


class ConvDictionary:
    """A bank of kernels sharing shape and dilation over a fixed input grid.

    ``kernels`` is the taps array (width, *k_spatial, c_in), or a sequence of
    per-kernel taps or ``ConvKernel``s of one shape. ``dilation`` applies to
    plain taps; a ``ConvKernel`` brings its own, and all must agree. The
    bank keeps one read-only ``taps`` array and one ``dilation``.
    """

    def __init__(self, kernels, input_shape, padding=VALID, dilation=1):
        if not isinstance(kernels, np.ndarray):
            kernels = list(kernels)
            if not kernels:
                raise ShapeError("a dictionary needs at least one kernel")
            dilations = {k.dilation if isinstance(k, ConvKernel) else dilation for k in kernels}
            if len(dilations) > 1:
                raise ShapeError("all kernels must share the same dilation")
            (dilation,) = dilations
            kernels = [
                k.taps if isinstance(k, ConvKernel) else np.asarray(k, float) for k in kernels
            ]
            if len({k.shape for k in kernels}) > 1:
                raise ShapeError("all kernels must share the same tap shape")
        self.taps = _checked_taps(kernels, dilation)
        self.dilation = int(dilation)
        input_shape = tuple(int(d) for d in input_shape)
        if len(input_shape) != len(self.kernel_spatial) + 1:
            raise ShapeError(
                f"input_shape {input_shape} does not match kernel rank "
                f"{len(self.kernel_spatial)} (+1 channel axis)"
            )
        if min(input_shape) < 1:
            raise ShapeError(f"input_shape entries must all be >= 1, got {input_shape}")
        if input_shape[-1] != self.taps.shape[-1]:
            raise ShapeError(
                f"input has {input_shape[-1]} channels but kernels expect "
                f"{self.taps.shape[-1]}"
            )
        if padding not in (VALID, SAME):
            raise ShapeError(f"unknown padding mode {padding!r}")
        if padding == VALID:
            for dim, ext in zip(input_shape, self.dilated_extent):
                if ext > dim:
                    raise ShapeError(
                        "dilated kernel extent does not fit the input under "
                        "valid padding"
                    )
        self.input_shape = input_shape
        self.padding = padding

    # -- geometry: cached, since a dictionary is immutable -------------------

    @property
    def width(self):
        return len(self.taps)

    @property
    def kernel_spatial(self):
        return self.taps.shape[1:-1]

    @property
    def channels(self):
        return self.input_shape[-1]

    @property
    def spatial_shape(self):
        return self.input_shape[:-1]

    @cached_property
    def dilated_extent(self):
        return tuple(self.dilation * (k - 1) + 1 for k in self.kernel_spatial)

    @cached_property
    def out_spatial(self):
        if self.padding == SAME:
            return self.spatial_shape
        return tuple(
            dim - ext + 1 for dim, ext in zip(self.spatial_shape, self.dilated_extent)
        )

    @cached_property
    def pad_left(self):
        if self.padding == VALID:
            return tuple(0 for _ in self.spatial_shape)
        return tuple((ext - 1) // 2 for ext in self.dilated_extent)

    @cached_property
    def n_positions(self):
        return math.prod(self.out_spatial)

    @cached_property
    def rows(self):
        return math.prod(self.input_shape)

    @cached_property
    def cols(self):
        return self.n_positions * self.width

    @cached_property
    def shape(self):
        return (self.rows, self.cols)

    def kernel_array(self):
        """A writable copy of the taps, shape (width, *k_spatial, c_in)."""
        return self.taps.copy()

    @cached_property
    def lmax_bound(self):
        """Certified upper bound on lambda_max(D.T D), from the taps' DFT.

        A zero-padded dilated convolution is a submatrix of the circular one
        on any grid of at least out + dilated_extent - 1 points per axis, so
        ||D||_2 <= max_w sigma_max(K(w)), where K(w) is the c_in x width
        matrix of the dilated taps' DFT at frequency w (Sedghi, Gupta & Long,
        "The Singular Values of Convolutional Layers", ICLR 2019). Real taps
        give K(-w) = conj K(w), so the last axis needs only its first half.
        Cached: a dictionary is immutable.
        """
        spec = self.taps  # (width, *k_spatial, c_in)
        last = len(self.kernel_spatial) - 1
        for axis, (out, ext, k) in enumerate(
            zip(self.out_spatial, self.dilated_extent, self.kernel_spatial)
        ):
            grid = out + ext - 1
            freqs = np.arange(grid // 2 + 1 if axis == last else grid)
            phase = np.exp(
                (-2j * np.pi * self.dilation / grid) * np.outer(freqs, np.arange(k))
            )
            spec = np.tensordot(spec, phase, axes=([axis + 1], [1]))
            spec = np.moveaxis(spec, -1, axis + 1)
        k_hat = np.moveaxis(spec, 0, -1).reshape(-1, self.channels, self.width)
        k_hat_h = k_hat.conj().transpose(0, 2, 1)
        # the smaller of K K^H and K^H K has the same top eigenvalue
        gram = k_hat @ k_hat_h if self.channels <= self.width else k_hat_h @ k_hat
        return float(np.linalg.eigvalsh(gram)[:, -1].max())

    @cached_property
    def _kernel_matrix(self):
        """The taps as (width, n_taps * c_in), tap-major like the windows."""
        return self.taps.reshape(self.width, -1)  # a read-only view

    @cached_property
    def _tap_table(self):
        """Per tap, a (code-grid slice, signal slice) pair, batch axis first:
        the positions whose input for that tap lies inside the signal, and
        those inputs. No padded copy of a signal is ever made."""
        axes = []
        for k, dim, out, left in zip(
            self.kernel_spatial, self.spatial_shape, self.out_spatial, self.pad_left
        ):
            shifts = [t * self.dilation - left for t in range(k)]
            bounds = [(max(0, -sh), max(0, -sh, min(out, dim - sh)), sh) for sh in shifts]
            axes.append([(slice(lo, hi), slice(lo + sh, hi + sh)) for lo, hi, sh in bounds])
        return tuple(
            tuple((slice(None), *sl) for sl in zip(*tap)) for tap in itertools.product(*axes)
        )

    def _windows(self, x):
        """Signal windows (B, *spatial, c) -> (B * n_positions, n_taps * c):
        row p holds the taps' inputs at position p, tap-major like the taps."""
        windows = np.zeros((len(x), *self.out_spatial, len(self._tap_table), self.channels))
        for t_idx, (code_sl, signal_sl) in enumerate(self._tap_table):
            windows[(*code_sl, t_idx)] = x[signal_sl]
        return windows.reshape(len(x) * self.n_positions, -1)

    # -- matrix-free application: every operand is (*shape) or a batch
    # (B, *shape); an unbatched call is the batch of one, squeezed ---------

    def adjoint_array(self, x):
        """D.T applied to a signal array (*spatial, c) -> code (*out, width)."""
        xb, batched = _as_batch(x, self.input_shape, "signal")
        code = self._windows(xb) @ self._kernel_matrix.T
        code = code.reshape(len(xb), *self.out_spatial, self.width)
        return code if batched else code[0]

    def apply_array(self, code):
        """D applied to a code array (*out, width) -> signal (*spatial, c): per
        tap one GEMM (B * n_positions, width) @ (width, c), added into the
        signal where that tap lands inside it."""
        cb, batched = _as_batch(code, (*self.out_spatial, self.width), "code")
        flat = cb.reshape(-1, self.width)
        signal = np.zeros((len(cb), *self.input_shape))
        contrib = np.empty((len(flat), self.channels))
        tap_blocks = self._kernel_matrix.reshape(self.width, -1, self.channels)
        for t_idx, (code_sl, signal_sl) in enumerate(self._tap_table):
            np.matmul(flat, tap_blocks[:, t_idx], out=contrib)
            signal[signal_sl] += contrib.reshape(len(cb), *self.out_spatial, self.channels)[code_sl]
        return signal if batched else signal[0]

    def apply(self, code):
        cb, batched = _as_batch(code, (self.cols,), "code")
        signal = self.apply_array(cb.reshape(-1, *self.out_spatial, self.width))
        return signal.reshape(-1, self.rows) if batched else signal[0].ravel()

    def apply_adjoint(self, signal):
        sb, batched = _as_batch(signal, (self.rows,), "signal")
        code = self.adjoint_array(sb.reshape(-1, *self.input_shape))
        return code.reshape(-1, self.cols) if batched else code[0].ravel()

    def tap_correlation(self, signal, code):
        """d/dtaps of sum_b <signal_b, D code_b> for flat batches (B, rows) and
        (B, cols): signal windows correlated with the codes, in the taps'
        shape (width, *k_spatial, c_in)."""
        sb, _ = _as_batch(signal, (self.rows,), "signal")
        cb, _ = _as_batch(code, (self.cols,), "code")
        if len(sb) != len(cb):
            raise ShapeError(f"{len(sb)} signals but {len(cb)} codes")
        windows = self._windows(sb.reshape(-1, *self.input_shape))
        grads = cb.reshape(-1, self.width).T @ windows
        return grads.reshape(self.width, *self.kernel_spatial, self.channels)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "family": "conv",
            "kernels": self.taps.tolist(),
            "dilation": self.dilation,
            "input_shape": list(self.input_shape),
            "padding": self.padding,
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(
            np.asarray(doc["kernels"], dtype=float),
            doc["input_shape"],
            doc.get("padding", VALID),
            dilation=doc["dilation"],
        )


class MSDDictionary:
    """[I | D_conv]: dense-connection identity block next to a conv block."""

    def __init__(self, conv):
        if not isinstance(conv, ConvDictionary):
            raise ShapeError("MSDDictionary wraps a ConvDictionary")
        if conv.padding != SAME:
            raise ShapeError(
                "the identity block requires same-zero padding so the conv "
                "block preserves the signal dimension"
            )
        self.conv = conv

    @property
    def rows(self):
        return self.conv.rows

    @property
    def cols(self):
        return self.conv.rows + self.conv.cols

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, code):
        code, batched = _as_batch(code, (self.cols,), "code")
        code = code if batched else code[0]
        signal = self.conv.apply(code[..., self.rows :])
        signal += code[..., : self.rows]
        return signal

    def apply_adjoint(self, signal):
        conv_part = self.conv.apply_adjoint(signal)
        return np.concatenate([np.asarray(signal, dtype=float), conv_part], axis=-1)

    def to_json_dict(self):
        doc = self.conv.to_json_dict()
        doc["family"] = "msd"
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        return cls(ConvDictionary.from_json_dict(doc))


def dictionary_from_json(doc):
    if doc.get("family") == "msd":
        return MSDDictionary.from_json_dict(doc)
    return ConvDictionary.from_json_dict(doc)


def save_dictionary(dictionary, path):
    with open(path, "w") as fh:
        json.dump(dictionary.to_json_dict(), fh, indent=2)


def load_dictionary(path):
    with open(path) as fh:
        return dictionary_from_json(json.load(fh))


# -- dense materialization ---------------------------------------------------


def _check_dense_size(rows, cols):
    if rows * cols > MAX_DENSE_ENTRIES:
        raise MaterializationError(
            f"dense matrix would have {rows * cols} entries (limit {MAX_DENSE_ENTRIES})"
        )


def _tap_entries(conv):
    """Per tap t, D's entries that hold t, as a broadcast index into the
    (*spatial, c, *out, width) view of the conv block: along each axis the
    positions p whose input p + t * s - pad_left lies inside the signal.

    The map is worked out here from the geometry alone, not from the
    operators' tap slices or windows, so that ``to_matrix`` checks them.
    """
    rank = len(conv.spatial_shape)
    for t in itertools.product(*(range(k) for k in conv.kernel_spatial)):
        inputs, positions = [], []
        for d, (tap, dim, out, pad) in enumerate(
            zip(t, conv.spatial_shape, conv.out_spatial, conv.pad_left)
        ):
            shift = tap * conv.dilation - pad
            p = np.arange(max(0, -shift), min(out, dim - shift))  # empty if none
            p = p.reshape([-1 if e == d else 1 for e in range(rank)])
            inputs.append(p + shift)
            positions.append(p)
        yield t, (*inputs, slice(None), *positions, slice(None))


def _conv_block(mat, conv):
    """The conv block of a dense D (its last ``conv.cols`` columns) as a
    (*spatial, c, *out, width) array; a view when ``mat`` is C-ordered."""
    return mat[:, mat.shape[1] - conv.cols :].reshape(
        *conv.input_shape, *conv.out_spatial, conv.width
    )


def to_matrix(dictionary):
    """Dense D with apply(dictionary, code) == D @ code; a dense one as given."""
    if isinstance(dictionary, np.ndarray):
        return np.asarray(dictionary, dtype=float)
    if not isinstance(dictionary, (ConvDictionary, MSDDictionary)):
        raise ShapeError(f"cannot materialize {type(dictionary).__name__}")
    _check_dense_size(*dictionary.shape)
    conv = getattr(dictionary, "conv", dictionary)
    mat = np.zeros(dictionary.shape)
    np.fill_diagonal(mat[:, : mat.shape[1] - conv.cols], 1.0)  # [I | D]'s I; no-op for D
    block = _conv_block(mat, conv)
    for t, entries in _tap_entries(conv):
        block[entries] = conv.taps[(slice(None), *t)].T  # (c, width) at every position
    return mat


def apply(dictionary, code):
    """D @ code for a code (cols,) or a batch of codes (B, cols)."""
    if isinstance(dictionary, np.ndarray):
        return (dictionary @ np.asarray(code, dtype=float).T).T
    return dictionary.apply(code)


def apply_adjoint(dictionary, signal):
    """D.T @ signal for a signal (rows,) or a batch of signals (B, rows)."""
    if isinstance(dictionary, np.ndarray):
        return (dictionary.T @ np.asarray(signal, dtype=float).T).T
    return dictionary.apply_adjoint(signal)


def mutual_coherence(dictionary):
    """max_{i != j} |<d_i, d_j>| over unit-normalized columns."""
    _check_dense_size(dictionary.shape[1], dictionary.shape[1])  # the Gram matrix
    mat = to_matrix(dictionary)
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise DegenerateDictionaryError("dictionary has a zero column")
    normalized = mat / norms  # normalization on a copy only
    gram = np.abs(normalized.T @ normalized)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max()) if gram.size else 0.0


def stripe_sparsity(code, conv):
    """Max non-zero count of a 1-D bank's flat code over contiguous windows
    of 2n - 1 positions, n the bank's dilated kernel extent."""
    if len(conv.spatial_shape) != 1:
        raise ShapeError("stripe sparsity is defined for 1D dictionaries")
    code = np.asarray(code, dtype=float)
    if code.shape != (conv.cols,):
        raise ShapeError(f"expected code of length {conv.cols}, got {code.shape}")
    (positions,) = conv.out_spatial
    per_position = np.count_nonzero(code.reshape(positions, conv.width), axis=1)
    window = min(2 * conv.dilated_extent[0] - 1, positions)
    sums = np.convolve(per_position, np.ones(window, dtype=int), mode="valid")
    return int(sums.max())


def project_to_kernel_grad(dense_grad, template):
    """Sum a dense-matrix gradient onto each tied kernel tap.

    Returns an array of shape (width, *k_spatial, c_in). For an MSD
    template the identity-block columns contribute nothing.
    """
    dense_grad = np.asarray(dense_grad, dtype=float)
    if dense_grad.shape != template.shape:
        raise ShapeError(
            f"expected gradient of shape {template.shape}, got {dense_grad.shape}"
        )
    conv = getattr(template, "conv", template)
    block = _conv_block(dense_grad, conv)
    grads = np.zeros((conv.width, *conv.kernel_spatial, conv.channels))
    positions = tuple(range(len(conv.spatial_shape)))
    for t, entries in _tap_entries(conv):
        grads[(slice(None), *t)] = block[entries].sum(axis=positions).T
    return grads


def random_dictionary(input_shape, kernel_spatial, width, dilation=1, padding=VALID, seed=0):
    """Seeded Gaussian kernel bank, each kernel normalized to unit tap norm."""
    if width < 1:
        raise ShapeError("a dictionary needs at least one kernel")
    taps = np.random.default_rng(seed).standard_normal(
        (width, *kernel_spatial, input_shape[-1])
    )
    taps /= kernel_norms(taps)
    return ConvDictionary(taps, input_shape, padding, dilation=dilation)
