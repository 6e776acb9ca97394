"""Convolutional dictionaries against a test-local naive convolution oracle."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cscbench.dictionary as dictionary_module
from cscbench.dictionary import (
    SAME,
    VALID,
    ConvDictionary,
    ConvKernel,
    MSDDictionary,
    apply,
    apply_adjoint,
    dictionary_from_json,
    mutual_coherence,
    project_to_kernel_grad,
    random_dictionary,
    stripe_sparsity,
    to_matrix,
)
from cscbench.errors import (
    DegenerateDictionaryError,
    MaterializationError,
    ShapeError,
)
from cscbench_oracles import _stack, strided_adjoint_array, strided_apply_array
from strategies import conv_dictionaries, dense_dictionaries


def naive_matrix(kernels, input_shape, dilation, padding):
    """Column-by-column dense matrix via an N-D index-chasing loop (oracle)."""
    k_spatial, spatial = kernels[0].shape[:-1], input_shape[:-1]
    extent = [dilation * (k - 1) + 1 for k in k_spatial]
    if padding == VALID:
        out = [dim - ext + 1 for dim, ext in zip(spatial, extent)]
        pad_left = [0] * len(spatial)
    else:
        out = list(spatial)
        pad_left = [(ext - 1) // 2 for ext in extent]
    width = len(kernels)
    mat = np.zeros((int(np.prod(input_shape)), int(np.prod(out)) * width))
    for p_idx, p in enumerate(itertools.product(*map(range, out))):
        for j, taps in enumerate(kernels):
            col = p_idx * width + j
            for t in itertools.product(*map(range, k_spatial)):
                pos = [p[d] + t[d] * dilation - pad_left[d] for d in range(len(p))]
                if all(0 <= q < dim for q, dim in zip(pos, spatial)):
                    for c in range(input_shape[-1]):
                        row = np.ravel_multi_index((*pos, c), input_shape)
                        mat[row, col] += taps[(*t, c)]
    return mat


def naive_coherence(mat):
    """Max off-diagonal |Gram| of the unit-normalized columns; None if one is zero."""
    norms = np.sqrt(np.sum(mat * mat, axis=0))
    if np.any(norms == 0):
        return None
    gram = np.abs((mat / norms).T @ (mat / norms))
    off_diagonal = gram[~np.eye(len(gram), dtype=bool)]
    return float(off_diagonal.max()) if off_diagonal.size else 0.0


def small_bank(seed=0, length=7, channels=2, width=3, k=3, dilation=2, padding=SAME):
    return random_dictionary(
        (length, channels), (k,), width, dilation=dilation, padding=padding, seed=seed
    )


# -- geometry and materialization ---------------------------------------------


@pytest.mark.parametrize("padding", [VALID, SAME])
@pytest.mark.parametrize("dilation", [1, 2])
def test_to_matrix_matches_naive_oracle(rng, padding, dilation):
    for _ in range(5):
        length = int(rng.integers(5, 10))
        channels = int(rng.integers(1, 3))
        width = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        taps = [rng.standard_normal((k, channels)) for _ in range(width)]
        conv = ConvDictionary(
            [ConvKernel(t, dilation) for t in taps], (length, channels), padding
        )
        want = naive_matrix(taps, (length, channels), dilation, padding)
        assert np.allclose(to_matrix(conv), want, atol=1e-14)


@given(conv_dictionaries(), st.booleans())
def test_to_matrix_matches_nd_loop_oracle(conv, lift):
    # 1-D and 2-D grids, both paddings, dilations 1-3, with and without [I | D]
    want = naive_matrix(list(conv.kernel_array()), conv.input_shape, conv.dilation, conv.padding)
    dictionary = conv
    if lift and conv.padding == SAME:
        dictionary = MSDDictionary(conv)
        want = np.hstack([np.eye(conv.rows), want])
    assert np.array_equal(to_matrix(dictionary), want)


@given(conv_dictionaries(), st.booleans(), st.integers(0, 2**31 - 1))
def test_project_to_kernel_grad_is_adjoint_of_to_matrix(conv, lift, seed):
    # <G, D(K)> = <P(G), K>: D is linear in the taps K and P is its adjoint
    dictionary = MSDDictionary(conv) if lift and conv.padding == SAME else conv
    grad = np.random.default_rng(seed).standard_normal(dictionary.shape)
    dense = to_matrix(dictionary)
    identity_part = np.trace(grad[:, : dictionary.cols - conv.cols])
    lhs = np.sum(grad * dense) - identity_part
    rhs = np.sum(project_to_kernel_grad(grad, dictionary) * conv.kernel_array())
    scale = np.sum(np.abs(grad * dense))
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12 * scale)


def test_2x2_kernel_4x4_input_shapes():
    # single 2x2 kernel on a 4x4 grid: 9 valid positions at dilation 1,
    # 4 at dilation 2 (the dilated extent grows to 3x3)
    taps = np.arange(4.0).reshape(2, 2, 1) + 1.0
    d1 = ConvDictionary([ConvKernel(taps, 1)], (4, 4, 1), VALID)
    d2 = ConvDictionary([ConvKernel(taps, 2)], (4, 4, 1), VALID)
    assert d1.shape == (16, 9)
    assert d2.shape == (16, 4)
    # dilation 2 spreads the taps so no two shifted copies overlap
    assert mutual_coherence(d2) == 0.0


def test_apply_equals_dense_matvec(rng):
    conv = small_bank()
    dense = to_matrix(conv)
    for _ in range(5):
        code = rng.standard_normal(conv.cols)
        assert np.allclose(apply(conv, code), dense @ code, atol=1e-13)
        signal = rng.standard_normal(conv.rows)
        assert np.allclose(apply_adjoint(conv, signal), dense.T @ signal, atol=1e-13)


@given(st.integers(0, 2**31 - 1))
def test_adjoint_inner_product_identity(seed):
    rng = np.random.default_rng(seed)
    conv = small_bank(seed=seed % 100, padding=SAME if seed % 2 else VALID)
    code = rng.standard_normal(conv.cols)
    signal = rng.standard_normal(conv.rows)
    lhs = apply(conv, code) @ signal
    rhs = code @ apply_adjoint(conv, signal)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


@given(conv_dictionaries(), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_batched_operators_match_dense(conv, batch, seed):
    # a leading batch axis on every operator: rows are the unbatched calls
    rng = np.random.default_rng(seed)
    operators = [conv] + ([MSDDictionary(conv)] if conv.padding == SAME else [])
    for op in operators:
        dense = to_matrix(op)
        codes = rng.standard_normal((batch, op.cols))
        signals = rng.standard_normal((batch, op.rows))
        for fn, arg, want in (
            (apply, codes, codes @ dense.T),
            (apply_adjoint, signals, signals @ dense),
        ):
            for operand in (op, dense):
                got = fn(operand, arg)
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
                for b in range(batch):
                    assert np.allclose(fn(operand, arg[b]), got[b], rtol=0.0, atol=1e-13)
    code_arrays = codes[:, : conv.cols].reshape(batch, *conv.out_spatial, conv.width)
    signal_arrays = signals[:, : conv.rows].reshape(batch, *conv.input_shape)
    assert np.allclose(
        conv.apply_array(code_arrays).reshape(batch, -1),
        conv.apply(code_arrays.reshape(batch, -1)),
        rtol=0.0,
        atol=1e-13,
    )
    assert conv.adjoint_array(signal_arrays).shape == (batch,) + code_arrays.shape[1:]
    with pytest.raises(ShapeError):
        conv.apply(codes[:, :1].reshape(batch, 1, 1))


def _loud_boundary(arr, rank):
    """``arr`` (B, *grid, m) with its entries on the boundary of the grid 1e6
    times larger, so that a pairing that leaks across a grid row or into the
    next sample shows."""
    edge = np.zeros(arr.shape[1 : 1 + rank], dtype=bool)
    for axis in range(rank):
        edge[(slice(None),) * axis + (0,)] = edge[(slice(None),) * axis + (-1,)] = True
    return np.where(edge[None, ..., None], 1e6 * arr, arr)


@given(conv_dictionaries(), st.booleans(), st.integers(0, 7), st.integers(0, 2**31 - 1))
def test_a_batch_equals_its_per_sample_calls(conv, lift, batch, seed):
    # each row of a batched call is the call on that sample alone, to 1e-13 of
    # that sample's scale (bitwise is out of reach: BLAS results depend on the
    # GEMM's row count), and the dense product to 1e-12
    rng = np.random.default_rng(seed)
    rank = len(conv.spatial_shape)
    codes = _loud_boundary(rng.standard_normal((batch, *conv.out_spatial, conv.width)), rank)
    signals = _loud_boundary(rng.standard_normal((batch, *conv.input_shape)), rank)
    op = MSDDictionary(conv) if lift and conv.padding == SAME else conv
    flat_codes, flat_signals = codes.reshape(batch, conv.cols), signals.reshape(batch, conv.rows)
    lifted_codes = flat_codes
    if op is not conv:  # the identity slot takes a signal-shaped code
        lifted_codes = np.hstack([flat_signals[::-1], flat_codes])
    mat, conv_mat = to_matrix(op), to_matrix(conv)
    # a gain bounds |output| / max|operand|: D's largest absolute row or column sum
    for fn, arg, want, gain in (
        (op.apply, lifted_codes, lifted_codes @ mat.T, np.abs(mat).sum(axis=1).max()),
        (op.apply_adjoint, flat_signals, flat_signals @ mat, np.abs(mat).sum(axis=0).max()),
        (conv.apply_array, codes, (flat_codes @ conv_mat.T).reshape(signals.shape),
         np.abs(conv_mat).sum(axis=1).max()),
        (conv.adjoint_array, signals, (flat_signals @ conv_mat).reshape(codes.shape),
         np.abs(conv_mat).sum(axis=0).max()),
    ):
        got = fn(arg)
        assert got.shape == want.shape
        for b in range(batch):
            scale = np.max(np.abs(arg[b])) * gain
            assert np.max(np.abs(got[b] - fn(arg[b]))) <= 1e-13 * scale
            assert np.max(np.abs(got[b] - want[b])) <= 1e-12 * scale
    grads = conv.tap_correlation(flat_signals, flat_codes)
    per_sample = [conv.tap_correlation(s, c) for s, c in zip(flat_signals, flat_codes)]
    scale = sum(np.max(np.abs(s)) * np.sum(np.abs(c)) for s, c in zip(signals, codes))
    assert np.max(np.abs(grads - sum(per_sample, np.zeros_like(grads))), initial=0) <= 1e-13 * scale
    want = project_to_kernel_grad(flat_signals.T @ flat_codes, conv)
    assert np.max(np.abs(grads - want), initial=0) <= 1e-12 * scale


@pytest.mark.parametrize(
    "input_shape, width, dilation, batch",
    [
        ((100, 1), 16, 1, 25),  # fig4 layer 1
        ((100, 16), 16, 2, 25),  # fig4 layer 2, plain model
        ((100, 17), 16, 2, 25),  # fig4 layer 2, dense model
        ((50, 1), 8, 1, 25),  # unfold-sweep layer 1
        ((50, 9), 8, 2, 25),  # unfold-sweep layer 2
        ((100, 1), 4, 1, 1),  # lasso_solve, the README problem
        ((100, 17), 16, 2, 1),  # lasso_solve, the layer-2 problem
    ],
)
def test_flat_operators_match_the_strided_oracle_at_workload_shapes(
    rng, input_shape, width, dilation, batch
):
    conv = random_dictionary(input_shape, (3,), width, dilation=dilation, padding=SAME, seed=0)
    codes = rng.standard_normal((batch, *conv.out_spatial, width))
    signals = rng.standard_normal((batch, *input_shape))
    assert np.array_equal(conv.apply_array(codes), strided_apply_array(conv, codes))
    assert np.array_equal(conv.apply_array(codes[0]), strided_apply_array(conv, codes[:1])[0])
    want = strided_adjoint_array(conv, signals)
    assert np.max(np.abs(conv.adjoint_array(signals) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "input_shape, kernel, dilation, padding",
    [((7, 2), (3,), 2, SAME), ((7, 1), (3,), 2, VALID), ((5, 4, 2), (2, 3), 1, VALID),
     ((5, 4, 1), (3, 2), 2, SAME), ((3, 2), (5,), 3, SAME)],
)
def test_empty_batches_give_empty_outputs(input_shape, kernel, dilation, padding):
    conv = random_dictionary(input_shape, kernel, 3, dilation=dilation, padding=padding, seed=0)
    for op in [conv] + ([MSDDictionary(conv)] if padding == SAME else []):
        assert op.apply(np.zeros((0, op.cols))).shape == (0, op.rows)
        assert op.apply_adjoint(np.zeros((0, op.rows))).shape == (0, op.cols)
    code_shape = (*conv.out_spatial, conv.width)
    assert conv.apply_array(np.zeros((0, *code_shape))).shape == (0, *conv.input_shape)
    assert conv.adjoint_array(np.zeros((0, *conv.input_shape))).shape == (0, *code_shape)
    grads = conv.tap_correlation(np.zeros((0, conv.rows)), np.zeros((0, conv.cols)))
    assert grads.shape == conv.taps.shape and not grads.any()


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("lead", [(), (1,), (5,)])
@pytest.mark.parametrize("lift", [False, True])
def test_outputs_are_fresh_and_leave_the_operand_alone(rng, channels, lead, lift):
    # proximal_gradient updates outputs in place: a cached buffer handed out
    # twice, or an output aliasing its operand or the taps, would corrupt it
    conv = random_dictionary((30, channels), (3,), 4, dilation=2, padding=SAME, seed=0)
    op = MSDDictionary(conv) if lift else conv
    calls = [(op.apply, (op.cols,)), (op.apply_adjoint, (op.rows,)),
             (op.adjoint_array, conv.input_shape)]
    calls.append((op.apply_array, op.stack_shape if lift else (*conv.out_spatial, conv.width)))
    for fn, shape in calls:
        operand = rng.standard_normal(lead + shape)
        before = operand.copy()
        first, second = fn(operand), fn(operand)
        assert np.array_equal(operand, before) and np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        cached = [conv.taps, conv._window_kernel, *(a for tap in conv._tap_table for a in tap[:2])]
        assert not any(a.flags.writeable for a in cached)
        for out in (first, second):
            assert not any(np.shares_memory(out, a) for a in [operand, *cached])


def test_msd_matrix_is_identity_then_conv_block():
    conv = small_bank(padding=SAME)
    msd = MSDDictionary(conv)
    dense = to_matrix(msd)
    assert dense.shape == (conv.rows, conv.rows + conv.cols)
    assert np.array_equal(dense[:, : conv.rows], np.eye(conv.rows))
    assert np.array_equal(dense[:, conv.rows :], to_matrix(conv))


def test_msd_apply_and_adjoint_match_dense(rng):
    conv = small_bank(padding=SAME)
    msd = MSDDictionary(conv)
    dense = to_matrix(msd)
    code = rng.standard_normal(msd.cols)
    signal = rng.standard_normal(msd.rows)
    assert np.allclose(apply(msd, code), dense @ code, atol=1e-13)
    assert np.allclose(apply_adjoint(msd, signal), dense.T @ signal, atol=1e-13)


def _stack_order(dense):
    """Per entry of [I | D]'s flattened channel stack, its column in ``to_matrix``."""
    flat = np.arange(dense.cols, dtype=float)[None]
    return _stack(flat, dense.conv)[0].astype(int)


def _check_stack_operators(dense, stacks, x):
    """The stack operators on batches against ``to_matrix`` with its columns
    in stack order, to 1e-12 of the operand's scale times D's largest row or
    column sum; the adjoint's identity channels are x itself."""
    batch, conv = len(x), dense.conv
    mat = to_matrix(dense)[:, _stack_order(dense)]
    for fn, arg, want, gain in (
        (dense.apply_array, stacks, stacks.reshape(batch, -1) @ mat.T,
         np.abs(mat).sum(axis=1).max()),
        (dense.adjoint_array, x, x.reshape(batch, -1) @ mat, np.abs(mat).sum(axis=0).max()),
    ):
        got = fn(arg)
        assert got.shape == (batch, *(conv.input_shape if fn == dense.apply_array
                                      else dense.stack_shape))
        scale = np.max(np.abs(arg), initial=0.0) * gain
        assert np.max(np.abs(got.reshape(batch, -1) - want), initial=0.0) <= 1e-12 * scale
        if batch == 1:  # an unbatched call is the batch of one
            assert np.array_equal(fn(arg[0]), got[0])
    assert np.array_equal(dense.adjoint_array(x)[..., : conv.channels], x)


@given(dense_dictionaries(), st.sampled_from([1, 3]), st.integers(0, 2**31 - 1))
def test_stack_operators_are_the_dense_matrix_in_stack_order(dense, batch, seed):
    rng = np.random.default_rng(seed)
    stacks = rng.standard_normal((batch, *dense.stack_shape))
    x = rng.standard_normal((batch, *dense.conv.input_shape))
    _check_stack_operators(dense, stacks, x)
    # the flat face is to_matrix itself, in its (identity | conv) order
    mat = to_matrix(dense)
    codes, signals = rng.standard_normal((batch, dense.cols)), x.reshape(batch, -1)
    assert np.allclose(dense.apply(codes), codes @ mat.T, rtol=0.0, atol=1e-12)
    assert np.allclose(dense.apply_adjoint(signals), signals @ mat, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "input_shape, kernel, dilation, batch",
    [
        ((100, 1), 3, 1, 25),  # fig4 layer 1
        ((100, 17), 3, 2, 25),  # fig4 layer 2
        ((100, 17), 3, 2, 1),  # lasso_solve, the layer-2 problem
        ((50, 9), 3, 2, 25),  # unfold-sweep layer 2
        ((40, 3), 2, 2, 5),  # no tap of offset 0
        ((40, 1), 4, 3, 5),  # no tap of offset 0, one channel
    ],
)
def test_stack_operators_at_workload_shapes(rng, input_shape, kernel, dilation, batch):
    conv = random_dictionary(input_shape, (kernel,), 16, dilation=dilation, padding=SAME, seed=0)
    dense = MSDDictionary(conv)
    _check_stack_operators(dense, rng.standard_normal((batch, *dense.stack_shape)),
                           rng.standard_normal((batch, *input_shape)))


def test_msd_requires_same_padding():
    with pytest.raises(ShapeError):
        MSDDictionary(small_bank(padding=VALID))


def test_materialization_size_guard():
    conv = random_dictionary((4000, 1), (3,), 2, padding=SAME, seed=0)
    with pytest.raises(MaterializationError):
        to_matrix(conv)
    with pytest.raises(MaterializationError):
        mutual_coherence(conv)


@pytest.mark.parametrize(
    "input_len, kernel, width, lift",
    [
        (400, 51, 1, False),  # D just under the guard, filled over 51 taps
        (100, 301, 1, True),  # a kernel wider than the signal, under the [I | D] lift
        (20, 3, 2, False),  # a small bank, plain and lifted
        (20, 3, 2, True),
    ],
)
def test_assembly_memory_stays_within_size_guard(monkeypatch, input_len, kernel, width, lift):
    limit = 200_000
    monkeypatch.setattr(dictionary_module, "MAX_DENSE_ENTRIES", limit)
    conv = random_dictionary((input_len, 1), (kernel,), width, padding=SAME, seed=0)
    dictionary = MSDDictionary(conv) if lift else conv
    tracemalloc.start()
    try:
        mat = to_matrix(dictionary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * limit * 8  # D plus temporaries within the guard
    want = naive_matrix(list(conv.kernel_array()), conv.input_shape, conv.dilation, conv.padding)
    want = np.hstack([np.eye(conv.rows), want]) if lift else want
    assert np.array_equal(mat, want)
    assert abs(mutual_coherence(dictionary) - naive_coherence(want)) <= 1e-12


@given(conv_dictionaries(), st.booleans())
def test_mutual_coherence_matches_dense_oracle(conv, lift):
    # the coherence of the N-D loop oracle's D
    mat = naive_matrix(list(conv.kernel_array()), conv.input_shape, conv.dilation, conv.padding)
    dictionary = conv
    if lift and conv.padding == SAME:
        dictionary = MSDDictionary(conv)
        mat = np.hstack([np.eye(conv.rows), mat])
    want = naive_coherence(mat)
    if want is None:
        with pytest.raises(DegenerateDictionaryError):
            mutual_coherence(dictionary)
        return
    assert abs(mutual_coherence(dictionary) - want) <= 1e-12


def test_same_padding_preserves_grid():
    conv = small_bank(padding=SAME)
    assert conv.out_spatial == conv.spatial_shape


def test_valid_padding_rejects_oversized_kernel():
    with pytest.raises(ShapeError):
        random_dictionary((3, 1), (3,), 1, dilation=2, padding=VALID)


def test_kernel_validation():
    with pytest.raises(ShapeError):
        ConvKernel(np.ones(3))  # missing channel axis
    with pytest.raises(ShapeError):
        ConvKernel(np.ones((3, 1)), dilation=0)
    with pytest.raises(ShapeError):
        ConvKernel(np.array([[np.inf]]))


def test_kernel_taps_frozen():
    kernel = ConvKernel(np.ones((2, 1)))
    with pytest.raises(ValueError):
        kernel.taps[0, 0] = 2.0


def test_dictionary_validation():
    with pytest.raises(ShapeError):
        ConvDictionary([], (4, 1))
    with pytest.raises(ShapeError):
        ConvDictionary(
            [ConvKernel(np.ones((2, 1))), ConvKernel(np.ones((3, 1)))], (4, 1)
        )
    with pytest.raises(ShapeError):
        ConvDictionary(
            [ConvKernel(np.ones((2, 1))), ConvKernel(np.ones((2, 1)), dilation=2)],
            (4, 1),
        )
    with pytest.raises(ShapeError):
        ConvDictionary([ConvKernel(np.ones((2, 2)))], (4, 1))  # channel mismatch
    with pytest.raises(ShapeError):
        ConvDictionary([ConvKernel(np.ones((2, 1)))], (4, 1), padding="reflect")
    # a zero-length axis, which same padding would turn into a bank of no columns
    for taps, shape in ((np.ones((1, 2, 1)), (0, 1)), (np.ones((1, 2, 2, 1)), (4, 0, 1))):
        with pytest.raises(ShapeError, match="must all be >= 1"):
            ConvDictionary(taps, shape, SAME)


def test_apply_shape_validation(rng):
    conv = small_bank()
    with pytest.raises(ShapeError):
        conv.apply(rng.standard_normal(conv.cols + 1))
    with pytest.raises(ShapeError):
        conv.apply_adjoint(rng.standard_normal(conv.rows + 1))
    with pytest.raises(ShapeError):
        conv.adjoint_array(rng.standard_normal((3, 3)))


# -- coherence and stripes ----------------------------------------------------


def test_mutual_coherence_hand_case():
    mat = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # normalized columns: e1, e2, (1,1)/sqrt(2); max off-diagonal = 1/sqrt(2)
    assert mutual_coherence(mat) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)


def test_mutual_coherence_orthonormal_is_zero():
    assert mutual_coherence(np.eye(4)) == 0.0


def test_mutual_coherence_does_not_mutate():
    mat = np.array([[2.0, 0.0], [0.0, 3.0]])
    before = mat.copy()
    mutual_coherence(mat)
    assert np.array_equal(mat, before)


def test_mutual_coherence_zero_column_rejected():
    with pytest.raises(DegenerateDictionaryError):
        mutual_coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_stripe_sparsity_hand_case():
    bank = small_bank(length=4, width=2, k=2, dilation=1)  # m = 2, n = 2, 4 positions
    code = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    # windows of 3 positions; per-position counts (1, 0, 1, 2); best window
    # (0,1,2)->2, (1,2,3)->3
    assert stripe_sparsity(code, bank) == 3


def test_stripe_sparsity_window_capped_at_positions():
    bank = small_bank(length=3, channels=1, width=1, k=3, dilation=2)  # n = 5, 3 positions
    assert stripe_sparsity(np.array([1.0, 1.0, 1.0]), bank) == 3


def test_stripe_sparsity_reads_the_bank_geometry():
    # m = 3 kernels, n = 2 * (3 - 1) + 1 = 5, so windows of 9 of the 12 positions
    bank = small_bank(length=12, width=3, k=3, dilation=2)
    code = np.zeros((12, 3))
    code[0, 0] = code[0, 1] = code[8, 2] = code[10, 0] = 1.0
    # windows of 7 or fewer positions count 2, of 11 or more 4
    assert stripe_sparsity(code.ravel(), bank) == 3
    with pytest.raises(ShapeError):
        stripe_sparsity(np.zeros(bank.cols + 1), bank)


def test_stripe_sparsity_rejects_2d():
    conv = random_dictionary((4, 4, 1), (2, 2), 1, seed=0)
    with pytest.raises(ShapeError):
        stripe_sparsity(np.zeros(conv.cols), conv)


# -- kernel gradient projection ----------------------------------------------


def test_project_to_kernel_grad_matches_finite_differences(rng):
    conv = small_bank(seed=3, length=6, channels=1, width=2, k=2, dilation=1)
    codes = rng.standard_normal((conv.cols, 4))
    signals = rng.standard_normal((conv.rows, 4))

    def loss(bank):
        residual = signals - to_matrix(bank) @ codes
        return 0.5 * np.sum(residual**2) / codes.shape[1]

    dense = to_matrix(conv)
    residual = signals - dense @ codes
    dense_grad = -(residual @ codes.T) / codes.shape[1]
    grads = project_to_kernel_grad(dense_grad, conv)
    # the matrix-free form: residual windows correlated with the codes
    free = -conv.tap_correlation(residual.T, codes.T) / codes.shape[1]

    eps = 1e-6
    for j in range(conv.width):
        for idx in np.ndindex(conv.taps.shape[1:]):
            bump = np.zeros_like(conv.taps)
            bump[(j,) + idx] = eps
            geometry = (conv.input_shape, conv.padding, conv.dilation)
            hi = loss(ConvDictionary(conv.taps + bump, *geometry))
            lo = loss(ConvDictionary(conv.taps - bump, *geometry))
            fd = (hi - lo) / (2.0 * eps)
            assert grads[(j,) + idx] == pytest.approx(fd, abs=1e-6)
            assert free[(j,) + idx] == pytest.approx(fd, abs=1e-6)


@given(conv_dictionaries(), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_tap_correlation_is_projected_dense_gradient(conv, batch, seed):
    rng = np.random.default_rng(seed)
    residual = rng.standard_normal((batch, conv.rows))
    codes = rng.standard_normal((batch, conv.cols))
    want = project_to_kernel_grad(residual.T @ codes, conv)
    got = conv.tap_correlation(residual, codes)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("input_shape, dilation", [((100, 1), 1), ((100, 17), 2)])
def test_tap_correlation_at_fig4_layer_shapes(rng, input_shape, dilation):
    conv = random_dictionary(input_shape, (3,), 16, dilation=dilation, padding=SAME)
    residual = rng.standard_normal((128, conv.rows))
    codes = np.maximum(rng.standard_normal((128, conv.cols)), 0.0)
    want = project_to_kernel_grad(-(residual.T @ codes) / 128, conv)
    got = -conv.tap_correlation(residual, codes) / 128
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("input_shape, dilation", [((100, 1), 1), ((100, 17), 2)])
def test_apply_and_adjoint_match_dense_at_fig4_layer_shapes(rng, input_shape, dilation):
    conv = random_dictionary(input_shape, (3,), 16, dilation=dilation, padding=SAME)
    mat = to_matrix(conv)
    codes = rng.standard_normal((128, conv.cols))
    signals = rng.standard_normal((128, conv.rows))
    assert np.max(np.abs(conv.apply(codes) - codes @ mat.T)) <= 1e-12
    assert np.max(np.abs(conv.apply_adjoint(signals) - signals @ mat)) <= 1e-12


def test_project_to_kernel_grad_msd_ignores_identity_block(rng):
    conv = small_bank(padding=SAME)
    msd = MSDDictionary(conv)
    grad_conv = rng.standard_normal((conv.rows, conv.cols))
    grad_identity = rng.standard_normal((conv.rows, conv.rows))
    full = np.hstack([grad_identity, grad_conv])
    assert np.array_equal(
        project_to_kernel_grad(full, msd), project_to_kernel_grad(grad_conv, conv)
    )


def test_project_to_kernel_grad_shape_validation():
    conv = small_bank()
    with pytest.raises(ShapeError):
        project_to_kernel_grad(np.zeros((conv.rows, conv.cols + 1)), conv)


# -- construction and serialization -------------------------------------------


def test_random_dictionary_unit_norm_and_determinism():
    a = random_dictionary((9, 2), (3,), 4, dilation=2, padding=SAME, seed=7)
    b = random_dictionary((9, 2), (3,), 4, dilation=2, padding=SAME, seed=7)
    for ka, kb in zip(a.taps, b.taps):
        assert np.array_equal(ka, kb)
        assert np.linalg.norm(ka) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "input_shape, kernel_spatial, width, dilation",
    [((9, 1), (3,), 1, 1), ((30, 2), (3,), 5, 2), ((100, 17), (3,), 16, 2),
     ((40, 3), (5,), 7, 3), ((8, 8, 2), (2, 2), 4, 2), ((9, 7, 3), (3, 2), 3, 1)],
)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_random_dictionary_equals_per_kernel_draws(input_shape, kernel_spatial, width,
                                                    dilation, seed):
    # the oracle: one draw per kernel, each divided by its own np.linalg.norm
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(kernel_spatial + input_shape[-1:]) for _ in range(width)]
    bank = random_dictionary(input_shape, kernel_spatial, width, dilation, SAME, seed)
    assert np.array_equal(bank.taps, np.stack([t / np.linalg.norm(t) for t in draws]))
    assert bank.dilation == dilation and bank.width == width


@given(conv_dictionaries())
def test_array_and_kernel_list_banks_are_one_operator(conv):
    from_array = ConvDictionary(conv.kernel_array(), conv.input_shape, conv.padding,
                                dilation=conv.dilation)
    from_list = ConvDictionary([ConvKernel(t, conv.dilation) for t in conv.kernel_array()],
                               conv.input_shape, conv.padding)
    assert from_list.dilation == from_array.dilation == conv.dilation
    assert np.array_equal(to_matrix(from_array), to_matrix(from_list))
    assert np.array_equal(to_matrix(from_array), to_matrix(conv))


def test_bank_taps_are_a_read_only_copy():
    taps = np.ones((2, 3, 1))
    bank = ConvDictionary(taps, (5, 1))
    taps[0, 0, 0] = 2.0  # the caller's array stays the caller's
    assert bank.taps[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        bank.taps[0, 0, 0] = 2.0
    copy = bank.kernel_array()
    copy[0, 0, 0] = 3.0  # a writable copy
    assert bank.taps[0, 0, 0] == 1.0


def test_json_round_trip():
    # through JSON text, as ``pursue`` reads a serialized dictionary
    conv = small_bank(padding=SAME)
    for dictionary in (conv, MSDDictionary(conv)):
        loaded = dictionary_from_json(json.loads(json.dumps(dictionary.to_json_dict())))
        assert type(loaded) is type(dictionary)
        assert np.array_equal(to_matrix(loaded), to_matrix(dictionary))
