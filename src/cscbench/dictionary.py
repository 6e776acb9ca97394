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
    block aligns with the signal. Its code, a dense layer's, is the channel
    stack (*spatial, c + w) of the c identity and w conv channels; its flat
    operators take the block concatenation (identity slot | conv slot);
  * the operators (``apply``, ``apply_adjoint`` and their array forms, here
    and for dense matrices) return fresh arrays that share no memory with
    their operand or the dictionary; ``pursuit.proximal_gradient`` relies
    on it when it updates their outputs in place. Zero padding is never
    stored: a bank's operators see a batch as flat rows on the input grid,
    so each tap is one flat row offset. Per tap they run one GEMM into a
    contiguous buffer, zero the few rows whose tap lands outside the signal
    (they would leak into the next grid row or sample), and add it shifted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

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
        self.width, self.kernel_spatial = len(self.taps), self.taps.shape[1:-1]
        self.dilation = int(dilation)
        self.dilated_extent = tuple(self.dilation * (k - 1) + 1 for k in self.kernel_spatial)
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
        self.spatial_shape, self.channels = input_shape[:-1], input_shape[-1]
        self.padding = padding
        if padding == SAME:
            self.out_spatial = self.spatial_shape
            self.pad_left = tuple((ext - 1) // 2 for ext in self.dilated_extent)
        else:
            self.out_spatial = tuple(d - e + 1 for d, e in zip(input_shape, self.dilated_extent))
            self.pad_left = (0,) * len(self.spatial_shape)
        self._code_shape = (*self.out_spatial, self.width)
        self._code_grid = (slice(None), *map(slice, self.out_spatial))  # the grid's low corner
        self.n_positions = math.prod(self.out_spatial)
        self.rows, self.cols = math.prod(input_shape), self.n_positions * self.width
        self.shape = (self.rows, self.cols)

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
    def _tap_table(self):
        """Per tap, in the taps' order: (block, block_t, offset, lo, end, slabs, inner).

        A tap pairs code row p with signal row p + offset, on the input grid,
        through its (width, c) block: a view of the taps, as a copy changes
        some GEMM bits (``block_t`` is its contiguous transpose). Of n rows,
        [lo, n - end) have a partner. ``slabs`` index, in (B, *spatial), the
        rows where it lands outside the signal, which would leak into the next
        grid row or sample, and so every row with no partner. ``inner`` are
        the slabs of every axis but the first, which one signal needs: its
        first axis's slab rows that have a partner lie in another slab. A tap
        outside everywhere has offset 0 and one slab of all rows."""
        spatial, n_taps = self.spatial_shape, math.prod(self.kernel_spatial)
        strides = [math.prod(spatial[d + 1 :]) for d in range(len(spatial))]
        whole = (slice(None),) * (len(spatial) + 1)
        blocks = self.taps.reshape(self.width, n_taps, self.channels)
        blocks_t = self._window_kernel.reshape(n_taps, self.channels, self.width)
        table = []
        for t_idx, t in enumerate(itertools.product(*map(range, self.kernel_spatial))):
            offset, slabs = 0, []
            for d, (tap, left, dim, stride) in enumerate(zip(t, self.pad_left, spatial, strides)):
                sh = tap * self.dilation - left
                if abs(sh) >= dim:
                    offset, slabs = 0, [whole]
                    break
                offset += sh * stride
                if sh:
                    edge = slice(0, -sh) if sh < 0 else slice(dim - sh, dim)
                    slabs.append(whole[: d + 1] + (edge,) + whole[d + 2 :])
            block, block_t = blocks[:, t_idx], blocks_t[t_idx]
            inner = [slab for slab in slabs if slab[1] == whole[1]]
            table.append((block, block_t, offset, max(-offset, 0), max(offset, 0), slabs, inner))
        return tuple(table)

    @cached_property
    def _window_kernel(self):
        """The taps as (n_taps * c, width), tap-major like the windows."""
        kernel = self.taps.reshape(self.width, -1).T.copy()
        kernel.flags.writeable = False
        return kernel

    def _code_rows(self, code):
        """Codes (B, *out, width) as flat rows (B * N, width) on the input grid."""
        if self.padding == VALID:
            grid = np.zeros((len(code), *self.spatial_shape, self.width))
            grid[self._code_grid] = code
            code = grid
        return code.reshape(-1, self.width)

    def _windows(self, x):
        """Signal rows (B * N, c) -> (B * N, n_taps * c): row p holds, tap-major
        like the taps, the signal row each tap pairs with p, or zeros."""
        n, n_taps = len(x), len(self._tap_table)
        solo = n * self.channels == self.rows  # one signal: zeros for the rows with no partner
        windows = (np.zeros if solo else np.empty)((n, n_taps, self.channels))
        grid = windows.reshape(-1, *self.spatial_shape, n_taps, self.channels)
        for t, (_, _, offset, lo, end, slabs, inner) in enumerate(self._tap_table):
            windows[lo : n - end, t] = x[lo + offset : n - end + offset]
            for slab in inner if solo else slabs:
                grid[(*slab, t)] = 0.0
        return windows.reshape(n, n_taps * self.channels)

    # -- matrix-free application: every operand is (*shape) or a batch
    # (B, *shape); an unbatched call is the batch of one, squeezed ---------

    def adjoint_array(self, x):
        """D.T applied to a signal array (*spatial, c) -> code (*out, width):
        per tap, one GEMM of the signal rows [lo + offset, n - end + offset)
        into code rows [lo, n - end) of a buffer, its slabs zeroed, and one
        contiguous add. One channel or one signal takes one GEMM of the
        windows instead: (n, 1) @ (1, width) GEMMs are slow, and one signal's
        extra GEMM calls cost more than the window copies."""
        xb, batched = _as_batch(x, self.input_shape, "signal")
        rows = xb.reshape(-1, self.channels)
        n = len(rows)
        if self.channels == 1 or len(xb) == 1:
            code = self._windows(rows) @ self._window_kernel
        else:
            code, part = np.empty((n, self.width)), np.empty((n, self.width))
            for t, (_, block_t, offset, lo, end, slabs, _) in enumerate(self._tap_table):
                buf = part if t else code  # the first tap writes the sum itself
                np.matmul(rows[lo + offset : n - end + offset], block_t, out=buf[lo : n - end])
                for slab in slabs:
                    buf.reshape(len(xb), *self.spatial_shape, self.width)[slab] = 0.0
                if t:
                    code += part
        code = code.reshape(len(xb), *self.spatial_shape, self.width)
        if self.padding == VALID:
            code = code[self._code_grid]
        return code if batched else code[0]

    def apply_array(self, code, start=None):
        """D applied to a code array (*out, width) -> signal (*spatial, c): per
        tap, one GEMM (B * N, width) @ (width, c) into a contiguous buffer, its
        slabs zeroed, and one contiguous add of its rows [lo, n - end) into the
        signal rows ``offset`` further on. The sum starts from zero, or from a
        copy of ``start``, B * N * c values in signal order: [I | D] passes its
        identity channels."""
        cb, batched = _as_batch(code, self._code_shape, "code")
        flat = self._code_rows(cb)
        n = len(flat)
        if start is None:
            signal = np.zeros((n, self.channels))
        else:
            signal = np.array(start, order="C").reshape(n, self.channels)
        contrib = np.empty((n, self.channels))
        grid = contrib.reshape(len(cb), *self.input_shape)
        for block, _, offset, lo, end, slabs, inner in self._tap_table:
            np.matmul(flat, block, out=contrib)
            for slab in inner if len(cb) == 1 else slabs:  # rows with no partner are not read
                grid[slab] = 0.0
            signal[lo + offset : n - end + offset] += contrib[lo : n - end]
        signal = signal.reshape(len(cb), *self.input_shape)
        return signal if batched else signal[0]

    def apply(self, code):
        cb, batched = _as_batch(code, (self.cols,), "code")
        signal = self.apply_array(cb.reshape(-1, *self._code_shape))
        return signal.reshape(-1, self.rows) if batched else signal.reshape(self.rows)

    def apply_adjoint(self, signal):
        sb, batched = _as_batch(signal, (self.rows,), "signal")
        code = self.adjoint_array(sb.reshape(-1, *self.input_shape))
        return code.reshape(-1, self.cols) if batched else code.reshape(self.cols)

    def tap_correlation(self, signal, code):
        """d/dtaps of sum_b <signal_b, D code_b> for flat batches (B, rows) and
        (B, cols): signal windows correlated with the codes, in the taps'
        shape (width, *k_spatial, c_in)."""
        sb, _ = _as_batch(signal, (self.rows,), "signal")
        cb, _ = _as_batch(code, (self.cols,), "code")
        if len(sb) != len(cb):
            raise ShapeError(f"{len(sb)} signals but {len(cb)} codes")
        windows = self._windows(sb.reshape(-1, self.channels))
        codes = self._code_rows(cb.reshape(-1, *self._code_shape))
        return (codes.T @ windows).reshape(self.width, *self.kernel_spatial, self.channels)

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
    """[I | D_conv], the dense connection. Its array operators take channel
    stacks (*spatial, c + w), c identity then w conv channels per position;
    the flat ones take (identity slot | conv slot), ``to_matrix``'s column
    order. Both run the conv operator's arithmetic, bit for bit alike."""

    def __init__(self, conv):
        if not isinstance(conv, ConvDictionary):
            raise ShapeError("MSDDictionary wraps a ConvDictionary")
        if conv.padding != SAME:
            raise ShapeError(
                "the identity block requires same-zero padding so the conv "
                "block preserves the signal dimension"
            )
        self.conv = conv
        self.rows, self.cols = conv.rows, conv.rows + conv.cols
        self.shape = (self.rows, self.cols)
        self.stack_shape = (*conv.spatial_shape, conv.channels + conv.width)

    def apply_array(self, stack):
        """[I | D] applied to a channel stack (*spatial, c + w) -> signal
        (*spatial, c): the conv operator on the conv channels, read in place
        (row-strided), its sum started from the identity channels."""
        sb, batched = _as_batch(stack, self.stack_shape, "code")
        c = self.conv.channels
        signal = self.conv.apply_array(sb[..., c:], sb[..., :c])
        return signal if batched else signal[0]

    def adjoint_array(self, x):
        """[I | D].T applied to a signal (*spatial, c) -> channel stack
        (*spatial, c + w) of x and D.T x."""
        xb, batched = _as_batch(x, self.conv.input_shape, "signal")
        stack = np.concatenate([xb, self.conv.adjoint_array(xb)], axis=-1)
        return stack if batched else stack[0]

    def apply(self, code):
        """``apply_array``'s sum on the flat slots (identity | conv)."""
        cb, batched = _as_batch(code, (self.cols,), "code")
        conv_code = cb[:, self.rows :].reshape(len(cb), *self.conv._code_shape)
        signal = self.conv.apply_array(conv_code, cb[:, : self.rows]).reshape(len(cb), self.rows)
        return signal if batched else signal[0]

    def apply_adjoint(self, signal):
        sb, batched = _as_batch(signal, (self.rows,), "signal")
        out = np.empty((len(sb), self.cols))  # [x | D.T x]
        out[:, : self.rows] = sb
        out[:, self.rows :] = self.conv.apply_adjoint(sb)
        return out if batched else out[0]

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


def array_operator(dictionary):
    """A conv or [I | D] dictionary's array operators as ``apply`` and
    ``apply_adjoint``, for ``pursuit.proximal_gradient`` to run on code
    arrays (a dense layer's channel stacks) in place of flat codes."""
    return SimpleNamespace(apply=dictionary.apply_array, apply_adjoint=dictionary.adjoint_array)


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
