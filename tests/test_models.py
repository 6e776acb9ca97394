"""Forward families against naive pipelines, dense algebra, and the solvers."""

import numpy as np
import pytest

from cscbench.dictionary import (
    SAME,
    MSDDictionary,
    random_dictionary,
    to_matrix,
)
from cscbench import pursuit
from cscbench.errors import DivergenceError, ShapeError
from cscbench.models import (
    NONNEG,
    RESCSC_VARIANTS,
    SOFT,
    DenseLayer,
    LayerParams,
    MLCSCModel,
    MSDCSCModel,
    ResCSCModel,
    _layer_step,
    mlcsc_forward,
    model_from_config,
    msdcsc_forward,
    msdcsc_layer_forward,
    rescsc_forward,
)
from cscbench.pursuit import LassoProblem, PursuitConfig, fista, ista
from cscbench_oracles import _stack, _unstack


def naive_conv_relu_layer(x, kernels, dilation, scale, bias):
    """Independent 1D correlation -> scale -> bias -> ReLU (same padding)."""
    length, channels = x.shape
    k = kernels[0].shape[0]
    ext = dilation * (k - 1) + 1
    pad_left = (ext - 1) // 2
    out = np.zeros((length, len(kernels)))
    for p in range(length):
        for j, taps in enumerate(kernels):
            acc = 0.0
            for t in range(k):
                pos = p + t * dilation - pad_left
                if 0 <= pos < length:
                    for c in range(channels):
                        acc += x[pos, c] * taps[t, c]
            out[p, j] = max(scale * acc + bias[j], 0.0)
    return out


def pursuit_layer(length, channels, width, seed=0, beta=0.15, dilation=1):
    bank = random_dictionary(
        (length, channels), (3,), width, dilation=dilation, padding=SAME, seed=seed
    )
    return DenseLayer.pursuit_mode(bank, beta)


# -- plain stacks ---------------------------------------------------------------


def test_mlcsc_forward_matches_naive_pipeline(rng):
    for trial in range(20):
        model = model_from_config(
            {
                "model": "mlcsc",
                "input_shape": [int(rng.integers(5, 10)), 1],
                "depth": 2,
                "width": int(rng.integers(1, 4)),
                "kernel_size": 3,
                "seed": trial,
                "bias": float(-rng.uniform(0.0, 0.3)),
            }
        )
        x = rng.standard_normal(model.layers[0].kernel_bank.input_shape)
        codes = mlcsc_forward(model, x)
        current = x
        for layer, code in zip(model.layers, codes):
            want = naive_conv_relu_layer(
                current,
                layer.kernel_bank.taps,
                layer.kernel_bank.dilation,
                layer.effective_scale(),
                layer.bias,
            )
            assert np.max(np.abs(code - want)) < 1e-12
            current = code


def test_mlcsc_dilation_cycle_default():
    model = model_from_config(
        {"model": "mlcsc", "input_shape": [16, 1], "depth": 5, "width": 2}
    )
    assert [l.kernel_bank.dilation for l in model.layers] == [1, 2, 3, 1, 2]


def test_mlcsc_forward_shape_mismatch():
    model = model_from_config(
        {"model": "mlcsc", "input_shape": [8, 1], "depth": 1, "width": 2}
    )
    with pytest.raises(ShapeError):
        mlcsc_forward(model, np.zeros((9, 1)))


# -- residual pairs ---------------------------------------------------------------


def shape_preserving_layers(length, channels, seed=0, bias=0.0, scale=None):
    layers = []
    for i in range(2):
        bank = random_dictionary(
            (length, channels), (3,), channels, padding=SAME, seed=seed + i
        )
        layers.append(
            LayerParams(bank, bias=np.full(channels, bias), scale=scale)
        )
    return layers


def test_rescsc_plain_variant_is_bitwise_mlcsc(rng):
    layers = shape_preserving_layers(9, 2, seed=4, bias=-0.1, scale=0.7)
    res = ResCSCModel(layers, variant="plain")
    ml = MLCSCModel(layers)
    x = rng.standard_normal((9, 2))
    got = rescsc_forward(res, x)
    want = mlcsc_forward(ml, x)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_rescsc_resnet_zero_threshold_is_shortcut_arithmetic(rng):
    # with zero bias and the signed operator nothing is clipped, so the
    # second layer of a pair computes exactly Z + F(Z)
    layers = shape_preserving_layers(8, 2, seed=1, bias=0.0, scale=0.5)
    model = ResCSCModel(layers, variant="resnet", operator=SOFT)
    z = rng.standard_normal((8, 2))
    codes = rescsc_forward(model, z)
    d1 = to_matrix(layers[0].kernel_bank)
    d2 = to_matrix(layers[1].kernel_bank)
    f_of_z = 0.5 * d2.T @ (0.5 * d1.T @ z.ravel())
    assert np.max(np.abs(codes[1].ravel() - (z.ravel() + f_of_z))) < 1e-12


def test_rescsc_full_variant_matches_dense_hand_evaluation(rng):
    layers = shape_preserving_layers(7, 2, seed=9, bias=-0.05, scale=0.4)
    model = ResCSCModel(layers, variant="full", operator=NONNEG)
    z = rng.standard_normal((7, 2))
    codes = rescsc_forward(model, z)

    d1 = to_matrix(layers[0].kernel_bank)
    d2 = to_matrix(layers[1].kernel_bank)
    g1 = np.maximum(0.4 * d1.T @ z.ravel() + (-0.05), 0.0)
    pre = 0.4 * d2.T @ g1 + z.ravel() - 0.4 * d2.T @ (d2 @ z.ravel())
    g2 = np.maximum(pre + (-0.05), 0.0)
    assert np.max(np.abs(codes[0].ravel() - g1)) < 1e-12
    assert np.max(np.abs(codes[1].ravel() - g2)) < 1e-12


def test_rescsc_simplified_variant_drops_pair_input_term(rng):
    layers = shape_preserving_layers(7, 2, seed=2, bias=0.0, scale=0.3)
    model = ResCSCModel(layers, variant="simplified", operator=SOFT)
    z = rng.standard_normal((7, 2))
    codes = rescsc_forward(model, z)
    d1 = to_matrix(layers[0].kernel_bank)
    d2 = to_matrix(layers[1].kernel_bank)
    g1 = 0.3 * d1.T @ z.ravel()
    pre = 0.3 * d2.T @ g1 - 0.3 * d2.T @ (d2 @ z.ravel())
    assert np.max(np.abs(codes[1].ravel() - pre)) < 1e-12


def test_rescsc_validation(rng):
    layers = shape_preserving_layers(7, 2)
    with pytest.raises(ShapeError):
        ResCSCModel(layers, variant="skip")
    with pytest.raises(ShapeError):
        ResCSCModel(layers[:1])
    with pytest.raises(ShapeError):
        ResCSCModel(layers, operator="hard")
    # residual addition needs shape-preserving pairs
    narrow = [
        LayerParams(
            random_dictionary((7, 2), (3,), 1, padding=SAME, seed=i),
            bias=np.zeros(1),
            scale=1.0,
        )
        for i in range(2)
    ]
    with pytest.raises(ShapeError):
        rescsc_forward(ResCSCModel(narrow, variant="resnet"), rng.standard_normal((7, 2)))


@pytest.mark.parametrize("variant", [None, *RESCSC_VARIANTS])
def test_plain_and_residual_forwards_reject_batch_and_non_finite_input(rng, variant):
    # only a dense layer takes a batch axis
    layers = shape_preserving_layers(7, 2, seed=3, bias=-0.1, scale=0.5)
    if variant is None:
        forward = lambda x: mlcsc_forward(MLCSCModel(layers), x)
    else:
        forward = lambda x: rescsc_forward(ResCSCModel(layers, variant=variant), x)
    x = rng.standard_normal((7, 2))
    with pytest.raises(ShapeError):
        forward(np.stack([x, x]))
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[3, 1] = bad
        with pytest.raises(DivergenceError):
            forward(x_bad)


def test_mlcsc_forward_rejects_non_finite_input_no_window_reads():
    # valid padding at dilation 3 reads positions 0 and 3 only, so a NaN at
    # position 1 never reaches the code
    bank = random_dictionary((4, 1), (2,), 1, dilation=3, padding="valid", seed=0)
    x = np.array([[0.0], [np.nan], [0.0], [0.0]])
    with pytest.raises(DivergenceError):
        mlcsc_forward(MLCSCModel([LayerParams(bank, bias=np.zeros(1))]), x)


# -- dense stacks -----------------------------------------------------------------


def test_msd_layer_unfolding_zero_is_concat_relu(rng):
    # the single-step dense layer equals concatenate(X, ReLU(c conv(X) + b))
    layer = pursuit_layer(8, 1, 3, seed=5)
    x = np.abs(rng.standard_normal((8, 1)))
    out = msdcsc_layer_forward(layer, x, unfolding=0)
    conv = layer.kernel_bank
    scale = layer.effective_scale()
    want_conv = np.maximum(scale * conv.adjoint_array(x) + layer.bias, 0.0)
    want_pass = np.maximum(scale * x + layer.passthrough_bias, 0.0)
    assert np.max(np.abs(out[..., :1] - want_pass)) < 1e-14
    assert np.max(np.abs(out[..., 1:] - want_conv)) < 1e-14


@pytest.mark.parametrize("solver", ["ista", "fista"])
@pytest.mark.parametrize("unfolding", [0, 1, 3])
def test_msd_layer_equals_generic_solver(rng, solver, unfolding):
    # the layer's split/conv/subtract dataflow is exactly 1 + unfolding
    # solver iterations on the layer's Lasso problem from a zero start
    layer = pursuit_layer(9, 2, 3, seed=11, beta=0.2, dilation=2)
    x = rng.standard_normal((9, 2))
    out = msdcsc_layer_forward(layer, x, unfolding, solver)
    code = _unstack(out.reshape(1, -1), layer.kernel_bank)[0]

    problem = LassoProblem(MSDDictionary(layer.kernel_bank), x.ravel(), 0.2)
    config = PursuitConfig(iterations=1 + unfolding, nonneg=True, tol=1e-300)
    reference = (ista if solver == "ista" else fista)(problem, config)
    assert np.max(np.abs(code - reference.code)) < 1e-10


@pytest.mark.parametrize("solver", ["ista", "fista"])
def test_msd_layer_batch_equals_per_sample_calls(rng, solver):
    bank = random_dictionary((9, 2), (3,), 3, dilation=2, padding=SAME, seed=3)
    # a pursuit-mode layer, and a network-mode one whose positive biases are
    # negative thresholds
    layers = [
        pursuit_layer(9, 2, 3, seed=11, beta=0.2, dilation=2),
        DenseLayer(bank, bias=np.array([0.1, -0.2, 0.3]), scale=0.2, passthrough_bias=0.05),
    ]
    xs = rng.standard_normal((4, 9, 2))
    for layer in layers:
        for unfolding in (0, 2):
            out = msdcsc_layer_forward(layer, xs, unfolding, solver)
            assert out.shape == (4, 9, 5)
            for b in range(4):
                want = msdcsc_layer_forward(layer, xs[b], unfolding, solver)
                assert np.max(np.abs(out[b] - want)) <= 1e-13
    with pytest.raises(ShapeError):
        msdcsc_layer_forward(layers[0], xs[None], 0, solver)


@pytest.mark.parametrize("steps", [[1, 2, 4], [4, 1, 3], [3, 1, 3, 3], [2]])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("solver", ["ista", "fista"])
def test_layer_step_reads_every_depth_of_one_run(rng, monkeypatch, solver, batched, steps):
    bank = random_dictionary((9, 2), (3,), 3, dilation=2, padding=SAME, seed=3)
    layers = [
        pursuit_layer(9, 2, 3, seed=11, beta=0.2, dilation=2),
        DenseLayer(bank, bias=np.array([0.1, -0.2, 0.3]), scale=0.2, passthrough_bias=0.05),
    ]
    x = rng.standard_normal((4, 9, 2) if batched else (9, 2))
    runs = []
    proximal_gradient = pursuit.proximal_gradient

    def counted(*args):
        runs.append(args)
        return proximal_gradient(*args)

    monkeypatch.setattr(pursuit, "proximal_gradient", counted)
    outs = [_layer_step(layer, x, steps, solver == "fista") for layer in layers]
    monkeypatch.undo()
    assert len(runs) == len(layers)  # one run per layer serves every count
    for layer, layer_outs in zip(layers, outs):
        assert len(layer_outs) == len(steps)
        for n, out in zip(steps, layer_outs):
            assert np.array_equal(out, msdcsc_layer_forward(layer, x, n - 1, solver))


def test_stack_code_layout_takes_a_batch_axis(rng):
    # [I | D]'s flat face is its stack face on the oracles' (identity | conv)
    # layout of the codes, batched and per sample
    conv = random_dictionary((6, 2), (3,), 3, padding=SAME, seed=1)
    dense = MSDDictionary(conv)
    stacks = rng.standard_normal((4, 6, 5))
    codes = _unstack(stacks.reshape(4, -1), conv)
    assert codes.shape == (4, dense.cols)
    assert np.array_equal(dense.apply(codes), dense.apply_array(stacks).reshape(4, -1))
    x = rng.standard_normal((4, 6, 2))
    flat = dense.apply_adjoint(x.reshape(4, -1))
    assert np.array_equal(_stack(flat, conv), dense.adjoint_array(x).reshape(4, -1))
    for b in range(4):
        assert np.array_equal(dense.apply(codes[b]), dense.apply_array(stacks[b]).ravel())
        stack = dense.adjoint_array(x[b])
        assert np.array_equal(dense.apply_adjoint(x[b].ravel()), _unstack(stack[None], conv)[0])


def test_msdcsc_forward_channel_growth(rng):
    model = model_from_config(
        {"model": "msdcsc", "input_shape": [10, 1], "depth": 3, "width": 4}
    )
    x = rng.standard_normal((10, 1))
    final = msdcsc_forward(model, x)
    for layer, channels in zip(model.layers, (5, 9, 13)):
        x = msdcsc_layer_forward(layer, x, model.unfolding, model.solver)
        assert x.shape == (10, channels)
    assert np.array_equal(final, x)


def test_msdcsc_model_validation():
    layer = pursuit_layer(6, 1, 2)
    with pytest.raises(ShapeError):
        MSDCSCModel([layer], solver="sgd")
    with pytest.raises(ShapeError):
        MSDCSCModel([layer], unfolding=-1)
    with pytest.raises(ShapeError):
        msdcsc_layer_forward(layer, np.zeros((6, 1)), unfolding=-1)
    bank = random_dictionary((6, 1), (3,), 2, padding="valid", seed=0)
    with pytest.raises(ShapeError):
        msdcsc_layer_forward(
            DenseLayer(bank, bias=np.zeros(2), scale=1.0), np.zeros((4, 1)), 0
        )
    # a plain layer does not serve as a dense one
    plain = LayerParams(layer.kernel_bank, bias=layer.bias, scale=layer.scale)
    with pytest.raises(ShapeError):
        MSDCSCModel([layer, plain])
    with pytest.raises(ShapeError):
        msdcsc_layer_forward(plain, np.zeros((6, 1)), 0)


def test_stack_code_round_trip(rng):
    # a stack through the flat face and back: the flat apply of its flat code
    # is its stack apply, and the flat adjoint's code stacks to the stack
    # adjoint's output
    conv = random_dictionary((7, 2), (3,), 3, padding=SAME, seed=0)
    dense = MSDDictionary(conv)
    stack = rng.standard_normal((7, 5))
    code = _unstack(stack.reshape(1, -1), conv)
    assert np.array_equal(_stack(code, conv).reshape(stack.shape), stack)
    assert np.array_equal(dense.apply(code[0]), dense.apply_array(stack).ravel())
    x = rng.standard_normal(7 * 2)
    back = _stack(dense.apply_adjoint(x)[None], conv).reshape(7, 5)
    assert np.array_equal(back, dense.adjoint_array(x.reshape(7, 2)))


def test_layer_params_validation():
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=0)
    with pytest.raises(ShapeError):
        LayerParams(bank, bias=np.zeros(3))
    with pytest.raises(ShapeError):
        LayerParams(bank, bias=np.zeros(2), scale=0.0)


def test_layer_type_sets_the_dictionary():
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=0)
    plain = LayerParams(bank, bias=np.zeros(2))
    assert type(plain) is LayerParams and plain.dictionary() is bank
    assert not hasattr(plain, "passthrough_bias")
    # an identity-channel bias makes the layer dense
    dense = LayerParams(bank, bias=np.zeros(2), passthrough_bias=-0.1)
    assert type(dense) is DenseLayer and dense.passthrough_bias == -0.1
    assert isinstance(dense.dictionary(), MSDDictionary) and dense.dictionary().conv is bank
    assert dense.lipschitz() == pytest.approx(plain.lipschitz() + 2.0, abs=1e-12)
    assert type(LayerParams.pursuit_mode(bank, 0.4)) is LayerParams


def test_pursuit_mode_constants():
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=0)
    layer = DenseLayer.pursuit_mode(bank, beta=0.4)
    lipschitz = layer.lipschitz()
    assert layer.scale == pytest.approx(1.0 / lipschitz, abs=1e-15)
    assert np.allclose(layer.bias, -0.4 / lipschitz)
    assert layer.passthrough_bias == pytest.approx(-0.4 / lipschitz, abs=1e-15)


def test_model_from_config_validation():
    with pytest.raises(ShapeError):
        model_from_config(
            {"model": "gan", "input_shape": [8, 1], "depth": 1, "width": 1}
        )
    with pytest.raises(ShapeError):
        model_from_config(
            {
                "model": "mlcsc",
                "input_shape": [8, 1],
                "depth": 2,
                "width": 1,
                "dilations": [1],
            }
        )
