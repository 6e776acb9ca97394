"""Dictionary learning loop, experiment harness, and CSV writers."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscbench.cli import main
from cscbench.data import SyntheticDatasetSpec, classify, generate_dataset
from cscbench import dictionary, learning, pursuit
from cscbench.dictionary import SAME, MSDDictionary, random_dictionary, to_matrix
from cscbench.errors import DivergenceError, ShapeError
from cscbench.learning import (
    INIT_FRACTION,
    FIG4_HEADER,
    LearnConfig,
    SWEEP_HEADER,
    _fraction_beta,
    _in_blocks,
    _probe,
    _update_kernels,
    build_fig_models,
    build_pursuit_model,
    learn_dictionaries,
    unfold_objectives,
    unfold_sweep,
    write_experiment_csv,
    write_sweep_csv,
)
from cscbench.models import (DenseLayer, LayerParams, _layer_step, model_from_config,
                             msdcsc_layer_forward)
from cscbench.pursuit import (
    LassoProblem,
    PursuitConfig,
    fista,
    ista,
    lasso_objective,
    lipschitz_bound,
    proximal_gradient,
)
from cscbench_oracles import _unstack, last_iterate, reference_learn


def tiny_spec(**overrides):
    base = dict(
        n_classes=3, dim=12, train_per_class=6, test_total=9, noise_sigma=0.3, seed=0
    )
    base.update(overrides)
    return SyntheticDatasetSpec(**base)


def tiny_config(**overrides):
    base = dict(
        outer_iterations=2,
        pursuit_config=PursuitConfig(iterations=5, nonneg=True),
        probe_size=4,
        probe_iterations=10,
        objective_iterations=10,
        batch_size=8,
    )
    base.update(overrides)
    return LearnConfig(**base)


# -- batched pursuit ----------------------------------------------------------------


def _matrix_pursuit(mat, signals, beta, steps, momentum):
    """Nonnegative ISTA (FISTA with ``momentum``) from zero on a dense matrix
    over a batch of signals (B, rows), at step 1/``lipschitz_bound``."""
    lipschitz = lipschitz_bound(mat)
    iterates = proximal_gradient(mat, signals, beta / lipschitz, 1.0 / lipschitz, momentum,
                                 nonneg=True)
    return last_iterate(iterates, steps)


def _conv_fista(bank, signals, beta, steps, lipschitz, huber=None):
    """Nonnegative FISTA from zero on ``bank`` at step 1/``lipschitz`` over a
    batch (B, *input), blocked as the probe runs it: ``_layer_step`` on a
    plain layer with bias -beta/lipschitz and scale 1/lipschitz."""
    layer = LayerParams(bank, bias=np.full(bank.width, -beta / lipschitz), scale=1.0 / lipschitz)
    return _in_blocks(lambda block: _layer_step(layer, block, (steps,), True, huber=huber),
                      signals)[0]


def test_batched_ista_matches_per_sample_solver(rng):
    mat = rng.standard_normal((8, 12))
    signals = rng.standard_normal((8, 5))
    beta = 0.2
    lipschitz = lipschitz_bound(mat)
    codes = _matrix_pursuit(mat, signals.T, beta, 15, False)
    for j in range(5):
        problem = LassoProblem(mat, signals[:, j], beta)
        want = ista(
            problem,
            PursuitConfig(
                iterations=15, nonneg=True, tol=1e-300, lipschitz_override=lipschitz
            ),
        ).code
        assert np.max(np.abs(codes[j] - want)) < 1e-12


@pytest.mark.parametrize("batch", [1, learning._BLOCK, learning._BLOCK + 1, 64])
@pytest.mark.parametrize("momentum", [False, True])
def test_blocked_pursue_matches_one_unblocked_run(rng, batch, momentum):
    # training's path, ``_layer_step`` on a pursuit-mode layer over blocks of
    # the batch, against one unblocked run on the layer's flat operator and
    # on its dense matrix
    conv = random_dictionary((12, 2), (3,), 3, dilation=2, padding=SAME, seed=5)
    for layer in (LayerParams.pursuit_mode(conv, 0.1), DenseLayer.pursuit_mode(conv, 0.1)):
        signals = rng.standard_normal((batch, *conv.input_shape))
        got = _in_blocks(lambda block: _layer_step(layer, block, (12,), momentum), signals)[0]
        got = got.reshape(batch, -1)
        if isinstance(layer, DenseLayer):
            got = _unstack(got, conv)  # the flat face's (identity | conv) order
        dictionary = layer.dictionary()
        for operator in (dictionary, to_matrix(dictionary)):
            iterates = proximal_gradient(operator, signals.reshape(batch, -1), -layer.bias[0],
                                         layer.scale, momentum, nonneg=True)
            want = last_iterate(iterates, 12)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


def test_empty_batch_gives_empty_outputs():
    conv = random_dictionary((12, 2), (3,), 3, dilation=2, padding=SAME)
    signals = np.empty((0, conv.rows))
    codes, residuals = _in_blocks(
        lambda block: (conv.apply_adjoint(block), block[:, :3]), signals
    )
    assert codes.shape == (0, conv.cols) and residuals.shape == (0, 3)
    arrays = signals.reshape(0, *conv.input_shape)  # pursuits take code arrays
    for layer in (LayerParams.pursuit_mode(conv, 0.1), DenseLayer.pursuit_mode(conv, 0.1)):
        shape = layer.dictionary().stack_shape if isinstance(layer, DenseLayer) \
            else (*conv.out_spatial, conv.width)
        (codes,) = _in_blocks(lambda block: _layer_step(layer, block, (5,), True), arrays)
        assert codes.shape == (0, *shape)
        assert _probe(layer, arrays, 0.1, 5).shape == (0, *shape)


@settings(max_examples=30)
@given(
    n=st.integers(4, 12),
    channels=st.integers(1, 2),
    width=st.integers(1, 3),
    kernel=st.integers(1, 3),
    dilation=st.integers(1, 3),
    positive=st.booleans(),
    beta=st.floats(0.01, 1.0),
    scale=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_dense_probe_closed_form_is_the_optimum(
    n, channels, width, kernel, dilation, positive, beta, scale, seed
):
    bank = random_dictionary((n, channels), (kernel,), width, dilation=dilation, padding=SAME,
                             seed=seed)
    if positive:  # kernels whose taps sum past 1 correlate past beta with large signals
        bank = dictionary.ConvDictionary(np.abs(bank.taps), bank.input_shape, SAME,
                                         dilation=dilation)
    dense = MSDDictionary(bank)
    rng = np.random.default_rng(seed)
    x = scale * rng.uniform(0.0, 1.0, dense.rows) * (rng.uniform(size=dense.rows) < 0.7)
    problem = LassoProblem(to_matrix(dense), x, beta)
    closed = np.concatenate([np.maximum(x - beta, 0.0), np.zeros(bank.cols)])  # zero conv code
    arrays = x.reshape(1, *bank.input_shape)
    certified = not _conv_fista(bank, arrays, beta, 1, bank.lmax_bound, beta).any()
    if certified:
        stack = _probe(DenseLayer(bank, bias=np.zeros(width)), arrays, beta, 3)
        assert np.array_equal(_unstack(stack.reshape(1, -1), bank)[0], closed)
        reference = fista(problem, PursuitConfig(3000, tol=1e-300, nonneg=True))
        want = lasso_objective(problem, closed)
        assert lasso_objective(problem, reference.code) >= want - 1e-12 * want
        return
    # the KKT test of the zero conv code fails by a clear margin at column j
    gradient = bank.apply_adjoint(np.minimum(x, beta)) - beta
    j = int(np.argmax(gradient))
    assume(gradient[j] > 1e-3)
    # so a conv code along e_j, its identity code in closed form, does better
    step = np.zeros(bank.cols)
    step[j] = gradient[j] / np.sum(to_matrix(bank)[:, j] ** 2)
    better = np.concatenate([np.maximum(x - bank.apply(step) - beta, 0.0), step])
    assert lasso_objective(problem, better) < lasso_objective(problem, closed)
    reference = fista(problem, PursuitConfig(3000, tol=1e-300, nonneg=True))
    assert np.any(reference.code[dense.rows :] > 0)


def test_dense_probe_skips_only_fixed_points(rng):
    taps = np.abs(random_dictionary((20, 2), (3,), 3, dilation=2, padding=SAME, seed=4).taps)
    bank = dictionary.ConvDictionary(taps, (20, 2), SAME, dilation=2)
    beta = 0.2
    # small signals certify, large ones meet kernels whose taps sum past 1
    # and do not; more than one block of each
    scales = np.repeat([0.01, 3.0], learning._BLOCK + 5)
    signals = rng.uniform(0.0, 1.0, (len(scales), bank.rows)) * scales[:, None]
    signals = signals[rng.permutation(len(signals))]
    lmax = bank.lmax_bound
    arrays = signals.reshape(-1, *bank.input_shape)
    live = _conv_fista(bank, arrays, beta, 1, lmax, beta).reshape(len(signals), -1).any(axis=1)
    assert 0 < np.count_nonzero(live) < len(signals)
    got = _probe(DenseLayer(bank, bias=np.zeros(bank.width)), arrays, beta, 40)
    got = _unstack(got.reshape(len(got), -1), bank)
    # one unskipped Huber-FISTA run over the whole batch, identity in closed form
    conv = _conv_fista(bank, arrays, beta, 40, lmax, beta).reshape(len(signals), -1)
    want = np.hstack([np.maximum(signals - bank.apply(conv) - beta, 0.0), conv])
    assert not conv[~live].any()  # certified rows stay at zero
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec, model", [
    (dict(dim=16, seed=0), dict(width=3, kernel_size=3, dilations=[1, 2], seed=0)),
    (dict(dim=24, seed=1), dict(width=4, kernel_size=3, dilations=[3, 1], seed=5)),
    (dict(dim=20, seed=2, noise_sigma=0.05), dict(width=2, kernel_size=2, dilations=[2, 3], seed=9)),
])
@pytest.mark.parametrize("kind", ["mlcsc", "msdcsc"])
def test_learn_dictionaries_matches_dense_reference(spec, model, kind):
    _check_against_reference(spec, model, kind, batch_size=8)  # one block


@pytest.mark.parametrize("kind", ["mlcsc", "msdcsc"])
def test_learn_dictionaries_matches_dense_reference_across_blocks(kind):
    # blocks of 25, 25 and 10: the kernel step sums the blocks' gradient terms
    assert learning._BLOCK < 60 < 3 * learning._BLOCK
    spec = dict(dim=16, seed=3, train_per_class=30)
    model = dict(width=3, kernel_size=3, dilations=[2, 1], seed=4)
    _check_against_reference(spec, model, kind, batch_size=60)


def _check_against_reference(spec, model, kind, batch_size):
    dataset = generate_dataset(tiny_spec(**spec))
    config = tiny_config(outer_iterations=3, probe_size=6, probe_iterations=25,
                         objective_iterations=60, batch_size=batch_size)
    doc = dict(model, model=kind, input_shape=[spec["dim"], 1], depth=2)
    want, banks = reference_learn(model_from_config(doc), dataset, config)
    trained, got = learn_dictionaries(model_from_config(doc), dataset, config)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert (g.iteration, g.unsuccess_count) == (w.iteration, w.unsuccess_count)
        for name in ("objective", "beta"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), rel=1e-10)
    for layer, bank in zip(trained.layers, banks):
        taps = layer.kernel_bank.taps
        assert np.max(np.abs(taps - bank.taps)) <= 1e-10 * np.max(np.abs(bank.taps))


def test_batched_ista_momentum_improves_objective(rng):
    mat = rng.standard_normal((10, 14))
    signals = rng.standard_normal((10, 4))

    def objective(codes):
        resid = signals - mat @ codes.T
        return 0.5 * np.sum(resid**2) + 0.1 * np.sum(np.abs(codes))

    plain = _matrix_pursuit(mat, signals.T, 0.1, 25, False)
    accel = _matrix_pursuit(mat, signals.T, 0.1, 25, True)
    assert objective(accel) <= objective(plain) + 1e-9


def test_layer_lipschitz_upper_bounds_exact_constant(rng):
    bank = random_dictionary((10, 1), (3,), 3, padding=SAME, seed=2)
    dense_conv = to_matrix(bank)
    dense_msd = to_matrix(MSDDictionary(bank))
    exact_conv = 2.0 * np.linalg.eigvalsh(dense_conv.T @ dense_conv)[-1]
    exact_msd = 2.0 * np.linalg.eigvalsh(dense_msd.T @ dense_msd)[-1]
    got_conv = lipschitz_bound(bank)
    got_msd = lipschitz_bound(MSDDictionary(bank))
    assert exact_conv <= got_conv <= 1.05 * exact_conv
    assert exact_msd <= got_msd <= 1.05 * exact_msd
    # the identity augmentation shifts the constant by exactly +2
    assert got_msd - got_conv == pytest.approx(2.0, abs=1e-4 * got_conv)


# -- training loop ---------------------------------------------------------------------


def test_learn_dictionaries_zero_step_keeps_kernels(rng):
    dataset = generate_dataset(tiny_spec())
    ml_model, _ = build_fig_models(12, width=2, depth=2, seed=0)
    before = [k.copy() for l in ml_model.layers for k in l.kernel_bank.taps]
    model, records = learn_dictionaries(ml_model, dataset, tiny_config(dict_step=0.0))
    after = [k for l in model.layers for k in l.kernel_bank.taps]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert len(records) == 2
    assert [r.iteration for r in records] == [0, 1]
    for r in records:
        assert np.isfinite(r.objective) and np.isfinite(r.unsuccess_count)
        assert r.beta > 0 and r.wall_ms > 0


def test_learn_dictionaries_updates_and_renormalizes_kernels():
    dataset = generate_dataset(tiny_spec())
    ml_model, msd_model = build_fig_models(12, width=2, depth=2, seed=0)
    for model in (ml_model, msd_model):
        before = [k.copy() for l in model.layers for k in l.kernel_bank.taps]
        trained, _ = learn_dictionaries(model, dataset, tiny_config(dict_step=0.3))
        after = [k for l in trained.layers for k in l.kernel_bank.taps]
        assert any(not np.array_equal(b, a) for b, a in zip(before, after))
        for taps in after:
            assert np.linalg.norm(taps) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(16, 3, 1), (16, 3, 17), (5, 4, 2), (3, 2, 2, 3)])
def test_renormalization_equals_per_kernel_norm(shape):
    # the oracle: each kernel stepped, then divided by its own np.linalg.norm
    rng = np.random.default_rng(sum(shape))
    for _ in range(100):
        bank = dictionary.ConvDictionary(
            rng.standard_normal(shape), (9,) * (len(shape) - 2) + shape[-1:], SAME
        )
        grads = rng.standard_normal(shape)
        step = float(rng.uniform(0.01, 1.0))
        want = [(t - step * g) / np.linalg.norm(t - step * g) for t, g in zip(bank.taps, grads)]
        got = _update_kernels(bank, grads, step)
        assert np.array_equal(got.taps, np.stack(want))
        assert (got.input_shape, got.padding, got.dilation) == (
            bank.input_shape, bank.padding, bank.dilation)


def test_diverging_kernel_step_raises():
    bank = random_dictionary((9, 1), (3,), 2, padding=SAME)
    with np.errstate(over="ignore", invalid="ignore"):
        for grads in (np.full(bank.taps.shape, np.inf), np.full(bank.taps.shape, 1e300)):
            with pytest.raises(DivergenceError, match="diverged"):
                _update_kernels(bank, grads, 1.0)
    with pytest.raises(DivergenceError, match="collapsed"):
        _update_kernels(bank, bank.kernel_array(), 1.0)


def test_training_iteration_memory_high_water():
    # each block forms its kernel-gradient terms in turn and the last layer
    # keeps no codes; a gradient over the whole batch peaks at 9.9 and 13.7 MB.
    # Three iterations: a probe's arrays held while the next batch trains
    # took the dense model's later iterations to 6.8 MB
    spec = SyntheticDatasetSpec()
    dataset = generate_dataset(spec)
    for model in build_fig_models(spec.dim, seed=spec.seed):
        tracemalloc.start()
        try:
            learn_dictionaries(model, dataset, LearnConfig(outer_iterations=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7e6, f"{type(model).__name__}: {peak / 1e6:.2f} MB"


def test_learn_dictionaries_runs_matrix_free(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training materialized a dictionary")

    for module in (dictionary, learning):
        for name in ("to_matrix", "project_to_kernel_grad"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    dataset = generate_dataset(tiny_spec())
    for model in build_fig_models(12, width=2, depth=2, seed=0):
        _, records = learn_dictionaries(model, dataset, tiny_config())
        assert len(records) == 2


def _check_probe_objective(dense, outer_iterations):
    spec = SyntheticDatasetSpec()
    dataset = generate_dataset(spec)
    model = build_fig_models(spec.dim, seed=spec.seed)[dense]
    config = LearnConfig(outer_iterations=outer_iterations)
    _, records = learn_dictionaries(model, dataset, config)
    record = records[-1]
    # the last probe pursued the trained layer 1 on the held-out probe
    # signals: each iteration probes after its kernel step
    first = model.layers[0]
    problem = LassoProblem(first.dictionary(), dataset.test_signals[: config.probe_size],
                           record.beta)
    lambda_bar = lipschitz_bound(first.dictionary()) / 2.0

    def objective(iterations, lipschitz):
        # FISTA on the layer's whole Lasso, [I | D] for a dense one, at 1/lipschitz
        threshold = record.beta / lipschitz
        layer = replace(first, bias=np.full(first.bias.shape, -threshold), scale=1.0 / lipschitz)
        if dense:
            layer.passthrough_bias = -threshold
        signals = problem.signal.reshape(-1, *first.kernel_bank.input_shape)
        codes = _in_blocks(lambda block: _layer_step(layer, block, (iterations,), True), signals)[0]
        codes = codes.reshape(len(codes), -1)
        if dense:
            codes = _unstack(codes, first.kernel_bank)
        return float(np.mean(lasso_objective(problem, codes)))

    # no worse than the probe at the layers' step and its former depth
    assert record.objective <= objective(400, 2.0 * lambda_bar)
    reference = objective(3000, lambda_bar)
    assert abs(record.objective - reference) <= 1.5e-5 * reference


@pytest.mark.parametrize("dense", [False, True])
def test_probe_objective_at_fig4_defaults(dense):
    _check_probe_objective(dense, outer_iterations=1)


@pytest.mark.parametrize("dense", [False, True])
def test_probe_objective_at_a_later_fig4_iteration(dense):
    # over a whole fig4 run the gap is widest at iterations 3 to 5; the
    # sixth record (iteration 5) probes kernels trained five times
    _check_probe_objective(dense, outer_iterations=6)


def test_learn_dictionaries_rejects_unknown_model():
    dataset = generate_dataset(tiny_spec())
    with pytest.raises(ShapeError):
        learn_dictionaries(object(), dataset, tiny_config())


def test_learn_config_validation():
    for step in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ShapeError):
            LearnConfig(dict_step=step)
    with pytest.raises(ShapeError):
        LearnConfig(beta_schedule="warmup")
    with pytest.raises(ShapeError):
        LearnConfig(beta_schedule=INIT_FRACTION, beta_value=1.5)
    with pytest.raises(ShapeError):
        LearnConfig(probe_iterations=0)
    for schedule in ("fixed", "trace-max-fraction"):  # the init fraction is the only one
        with pytest.raises(ShapeError):
            LearnConfig(beta_schedule=schedule)


def test_fig_models_share_first_layer_kernels_and_beta(rng):
    ml_model, msd_model = build_fig_models(12, width=2, depth=2, seed=0)
    ml_bank = ml_model.layers[0].kernel_bank
    msd_bank = msd_model.layers[0].kernel_bank
    for a, b in zip(ml_bank.taps, msd_bank.taps):
        assert np.array_equal(a, b)
    signals = rng.standard_normal((7, 12, 1))
    beta_ml = _fraction_beta(ml_bank, signals, 0.1)
    beta_msd = _fraction_beta(msd_bank, signals, 0.1)
    assert beta_ml == pytest.approx(beta_msd, abs=1e-15)
    # the beta reads the conv block alone, not the dense layer's identity
    dense_conv_block = to_matrix(MSDDictionary(msd_bank))[:, msd_bank.rows :]
    want = 0.1 * np.max(np.abs(signals.reshape(7, -1) @ dense_conv_block))
    assert beta_msd == pytest.approx(want, rel=1e-13)


# -- unfolding sweep -------------------------------------------------------------------


# 9 signals make one block of ``unfold_objectives``, 60 make blocks of 25, 25 and 10
SWEEP_SIGNALS = (9, 60)


def _sweep_blocks(model, n, unfoldings, solver):
    """``unfold_objectives``' blocks over ``n`` tiny signals, each with its
    signals (B, 12, 1)."""
    signals = generate_dataset(tiny_spec(test_total=n)).test_signals
    blocks = list(unfold_objectives(model, signals, unfoldings, solver))
    inputs = [signals[i : i + learning._BLOCK, :, None] for i in range(0, n, learning._BLOCK)]
    assert [{len(codes) for _, codes in block.values()} for block in blocks] \
        == [{len(x)} for x in inputs]
    return zip(blocks, inputs)


def test_reference_inputs_fixed_across_unfolding():
    # each layer's objective is on one problem at every depth: layer 2's
    # signal is the single-step output of layer 1, whatever the unfolding.
    # The sweep reads it from the residual its run forms, which sums in
    # another order than ``lasso_objective`` does, so they agree to rounding
    dataset = generate_dataset(tiny_spec())
    model = build_pursuit_model(
        12, width=2, depth=2, seed=0, beta=0.1, calibration=dataset.train_signals
    )
    for n in SWEEP_SIGNALS:
        for results, x in _sweep_blocks(model, n, (2, 0, 1), "ista"):
            refs = [x, msdcsc_layer_forward(model.layers[0], x, 0, "ista")]
            assert sorted(results) == [0, 1, 2]
            for unfolding, (objectives, _) in results.items():
                for i, (layer, ref) in enumerate(zip(model.layers, refs)):
                    beta = -layer.bias[0] * layer.lipschitz()
                    problem = LassoProblem(layer.dictionary(),
                                           ref.reshape(len(ref), -1), beta)
                    out = msdcsc_layer_forward(layer, ref, unfolding, "ista")
                    want = lasso_objective(problem,
                                           _unstack(out.reshape(len(out), -1), layer.kernel_bank))
                    assert np.allclose(objectives[:, i], want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("solver", ["ista", "fista"])
def test_unfold_objectives_codes_are_the_chained_forward(solver):
    dataset = generate_dataset(tiny_spec())
    model = build_pursuit_model(
        12, width=2, depth=3, seed=0, beta=0.1, calibration=dataset.train_signals
    )
    for n in SWEEP_SIGNALS:
        for results, signals in _sweep_blocks(model, n, (1, 0, 2, 1), solver):
            for unfolding, (_, codes) in results.items():
                x = signals
                for layer in model.layers:
                    x = msdcsc_layer_forward(layer, x, unfolding, solver)
                assert np.array_equal(codes, x.reshape(len(x), -1))


def test_unfold_objectives_nonincreasing_on_fixed_problems():
    dataset = generate_dataset(tiny_spec())
    model = build_pursuit_model(
        12, width=2, depth=2, seed=0, beta=0.1, calibration=dataset.train_signals
    )
    for n in SWEEP_SIGNALS:
        blocks = [results for results, _ in _sweep_blocks(model, n, (0, 1, 2), "ista")]
        previous = None
        for unfolding in (0, 1, 2):
            obj, codes = (np.concatenate(parts) for parts in
                          zip(*(results[unfolding] for results in blocks)))
            assert obj.shape == (n, 2)
            assert codes.shape[0] == n
            if previous is not None:
                assert np.all(obj <= previous + 1e-12)
            previous = obj


def test_unfold_sweep_memory_high_water():
    # each block's codes go into per-class sums or are scored as they are
    # made; holding every depth's train and test codes peaked at 8.1 MB
    unfold_sweep()  # warm-up
    tracemalloc.start()
    try:
        unfold_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"{peak / 1e6:.2f} MB"


def test_unfold_sweep_rows_and_ordering():
    rows, details = unfold_sweep(
        unfoldings=(0, 1),
        solver="fista",
        dataset_spec=tiny_spec(),
        width=2,
        depth=2,
        beta=0.1,
        seed=0,
    )
    assert [r["unfolding"] for r in rows] == [0, 1]
    assert all(r["solver"] == "fista" for r in rows)
    assert rows[1]["mean_objective"] <= rows[0]["mean_objective"]
    assert set(details) == {0, 1}
    assert details[0].shape == (27, 2)  # train + test samples, one column per layer
    # rows come in the order given, repeats included
    again, _ = unfold_sweep(unfoldings=(1, 0, 1), solver="fista", dataset_spec=tiny_spec(),
                            width=2, depth=2, beta=0.1, seed=0)
    assert again == [rows[1], rows[0], rows[1]]


def _reference_sweep(unfoldings, solver, seed):
    """``unfold_sweep``'s rows at its defaults, one independent pass per
    unfolding from ``msdcsc_layer_forward`` and ``lasso_objective``: in each
    block of samples, every layer runs from zero at the unfolding on its
    reference input (the single-step output of the layer before on its own
    reference input) and on its chained input, separately."""
    spec = SyntheticDatasetSpec(n_classes=20, dim=50, train_per_class=10, test_total=100,
                                seed=seed)
    dataset = generate_dataset(spec)
    model = build_pursuit_model(50, width=8, depth=2, kernel_size=3, seed=seed, beta=0.1,
                                calibration=dataset.train_signals)

    def split(signals, unfolding):
        def block(x):
            ref, chained, objectives = x, x, []
            for layer in model.layers:
                out = msdcsc_layer_forward(layer, ref, unfolding, solver)
                beta = -layer.bias[0] * layer.lipschitz()
                problem = LassoProblem(MSDDictionary(layer.kernel_bank),
                                       ref.reshape(len(ref), -1), beta)
                code = _unstack(out.reshape(len(out), -1), layer.kernel_bank)
                objectives.append(lasso_objective(problem, code))
                chained = msdcsc_layer_forward(layer, chained, unfolding, solver)
                ref = msdcsc_layer_forward(layer, ref, 0, "ista")
            return np.stack(objectives, axis=1), chained.reshape(len(chained), -1)

        return learning._in_blocks(block, signals[..., None])

    rows = []
    for unfolding in unfoldings:
        train_obj, train_codes = split(dataset.train_signals, unfolding)
        test_obj, test_codes = split(dataset.test_signals, unfolding)
        rows.append({
            "unfolding": unfolding,
            "solver": solver,
            "mean_objective": float(np.vstack([train_obj, test_obj]).mean()),
            "accuracy": classify(train_codes, dataset.train_labels, test_codes,
                                 dataset.test_labels),
        })
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("solver", ["ista", "fista"])
@pytest.mark.parametrize("unfoldings", ["0,1,2", "2,0,2"])
def test_unfold_sweep_csv_matches_per_unfolding_reference(tmp_path, unfoldings, solver, seed):
    argv = ["unfold-sweep", "--unfolding", unfoldings, "--solver", solver, "--seed", str(seed)]
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 0
    reference = _reference_sweep([int(u) for u in unfoldings.split(",")], solver, seed)
    write_sweep_csv(reference, tmp_path / "reference.csv")
    got, want = (list(csv.reader(open(tmp_path / name, newline="")))
                 for name in ("sweep.csv", "reference.csv"))
    # every field to the byte but the mean objective, which the sweep reads
    # from its runs' residuals (FISTA's recovered from its momentum point):
    # equal to ``lasso_objective`` up to rounding
    objective = SWEEP_HEADER.index("mean_objective")
    assert len(got) == len(want) == len(reference) + 1
    for g, w in zip(got, want):
        assert g[:objective] + g[objective + 1 :] == w[:objective] + w[objective + 1 :]
    for g, w in zip(got[1:], want[1:]):
        assert float(g[objective]) == pytest.approx(float(w[objective]), rel=1e-14, abs=0.0)


def test_unfold_sweep_layer_forward_count(monkeypatch):
    runs = []
    proximal_gradient = pursuit.proximal_gradient

    def counted(*args):
        steps = [0]
        runs.append(steps)
        for iterate in proximal_gradient(*args):
            steps[0] += 1
            yield iterate

    monkeypatch.setattr(pursuit, "proximal_gradient", counted)
    unfold_sweep(unfoldings=(0, 1, 2), depth=2, seed=0)
    # 200 training and 100 test signals in blocks of 25: 8 and 4 blocks. The
    # calibration pass takes one step of layer 1 on each training block. Then
    # every block runs each layer once on its reference input to the deepest
    # unfolding (3 steps), and layer 2 once more on its chained input at
    # unfoldings 1 and 2 (2 and 3 steps).
    train, test = 200 // learning._BLOCK, 100 // learning._BLOCK
    assert len(runs) == train * (1 + 4) + test * 4
    assert sum(steps for (steps,) in runs) == train * (1 + 11) + test * 11


# -- CSV writers -------------------------------------------------------------------------


def test_write_experiment_csv(tmp_path):
    dataset = generate_dataset(tiny_spec())
    from cscbench.learning import reconstruction_experiment

    rows = reconstruction_experiment(
        dataset_spec=tiny_spec(), learn_config=tiny_config(), width=2, depth=2
    )
    path = tmp_path / "fig.csv"
    write_experiment_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == FIG4_HEADER
    assert len(parsed) == len(rows) + 1
    assert float(parsed[1][3]) == rows[0].objective_ml


def test_write_sweep_csv(tmp_path):
    rows = [
        {"unfolding": 0, "solver": "ista", "mean_objective": 1.25, "accuracy": 0.5},
        {"unfolding": 1, "solver": "ista", "mean_objective": 1.0, "accuracy": 0.75},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == SWEEP_HEADER
    assert parsed[1] == ["0", "ista", "1.25", "0.5"]
    assert parsed[2] == ["1", "ista", "1", "0.75"]
