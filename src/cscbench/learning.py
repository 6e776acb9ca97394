"""Alternating dictionary learning and the synthetic experiments.

Training works on 1D signals, batch first: a mini-batch is (B, *input), and
each layer's code array, a dense layer's channel stack, is the next layer's
input. Every pursuit is one :func:`cscbench.models._layer_step` call on a
layer, one block of the batch at a time, and each training block adds its
correlation of residual windows with its codes
(``ConvDictionary.tap_correlation``) to the kernel gradient, so no
dictionary is materialized and the last layer keeps no codes; the
per-sample solvers in :mod:`cscbench.pursuit` stay the reference
implementation. Training pursuits run each layer in pursuit mode, stepping
by the paper's 1/(2 lambda_bar) = 1/``lipschitz_bound``; the logging probe,
no model layer, runs FISTA on each conv bank D alone through a plain layer
at scale 1/lambda_bar, as lambda_bar = ``lmax_bound`` >= lambda_max(D.T D).
On a dense layer it pursues the Huber loss that the [I | D] Lasso leaves
once its identity channels are solved in closed form, and fills them
afterwards (``_probe``). The unfolding sweep keeps class sums of its codes,
not the codes, and scores each test block as it is made.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import SyntheticDatasetSpec, add_class_sums, centroid_hits, class_centroids, generate_dataset
from .dictionary import ConvDictionary, kernel_norms
from .errors import DivergenceError, ShapeError
from .models import (DenseLayer, LayerParams, MLCSCModel, MSDCSCModel, _layer_step, _momentum,
                     model_from_config, msdcsc_layer_forward)
from .pursuit import PursuitConfig, _objective

INIT_FRACTION = "init-fraction"


@dataclass
class LearnConfig:
    outer_iterations: int = 30
    pursuit_config: PursuitConfig = field(
        default_factory=lambda: PursuitConfig(iterations=20, nonneg=True)
    )
    dict_step: float = 0.3
    # the one schedule, kept as a field because perfbench/workloads.py passes it
    beta_schedule: str = INIT_FRACTION
    beta_value: float = 0.1  # rho: beta_i = rho * max |F_i^T X| on the first batch
    seed: int = 0
    batch_size: int = 128
    probe_size: int = 64
    # probe FISTA depths on the conv bank D at step 1/lambda_bar, lambda_bar =
    # D's lmax_bound (the dense model's identity slot in closed form); FISTA's
    # worst-case gap 2L||x*||^2/(k+1)^2 is no larger than at 80 and 400 steps
    # of 1/(2 lambda_bar).
    probe_iterations: int = 57
    # deeper pursuit for the first (cheap) probe layer: the logged objective
    # comparison needs near-optimal codes, the chain layers only need
    # reconstruction-grade ones
    objective_iterations: int = 283

    def __post_init__(self):
        if min(self.probe_iterations, self.objective_iterations) < 1:
            raise ShapeError("probe and objective iterations must be >= 1")
        if min(self.batch_size, self.probe_size) < 1:
            raise ShapeError("batch and probe sizes must be >= 1")
        if not 0 <= self.dict_step < math.inf:  # written so that NaN fails it
            raise ShapeError("dict_step must be finite and nonnegative")
        if self.beta_schedule != INIT_FRACTION:
            raise ShapeError(f"unknown beta schedule {self.beta_schedule!r}")
        if not 0.0 < self.beta_value < 1.0:
            raise ShapeError("the fraction schedule needs rho in (0, 1)")


@dataclass
class TrainingRecord:
    """Per-iteration log for one model (layer-1 reconstruction stats)."""

    iteration: int
    unsuccess_count: float
    objective: float
    beta: float
    wall_ms: float


@dataclass
class ExperimentRecord:
    """One merged row of the dense-vs-plain comparison run."""

    iteration: int
    unsuccess_count_ml: float
    unsuccess_count_msd: float
    objective_ml: float
    objective_msd: float
    wall_ms: float


# Pursuits, training's kernel gradients and layer forwards run over their
# samples in blocks of this many. Peak RSS: a block's temporaries grow with
# it; over one sample at a time, the unfold sweep's whole set at once raised
# its peak RSS by 23%, blocks of 25 by 4% (streamed, it traces 3.2 MB), and a
# fig4 iteration traces 5.1 MB in blocks, 13.7 MB unblocked. Cache: a block's
# pursuit state (codes, momentum point, gradient, windows) stays in a core's
# L2 cache for every step, where a batch of 64-128 signals does not. Rows are
# independent, so blocking changes no result beyond rounding.
_BLOCK = 25


def _in_blocks(fn, *batches):
    """``fn`` on aligned blocks of the batches' samples, which returns a tuple
    of per-sample arrays; filled into outputs rather than concatenated, which
    would hold every block twice. Zero samples make one empty block, so the
    outputs are empty arrays of their usual shapes."""
    n = len(batches[0])
    outputs = None
    for i in range(0, max(n, 1), _BLOCK):
        parts = fn(*(batch[i : i + _BLOCK] for batch in batches))
        if outputs is None:
            outputs = [np.empty((n,) + part.shape[1:]) for part in parts]
        for output, part in zip(outputs, parts):
            output[i : i + _BLOCK] = part
    return outputs


def _probe(layer, signals, beta, iterations):
    """The logging probe's codes of ``layer``'s bank D, a dense layer's
    channel stacks, for a batch (B, *input): nonnegative FISTA from zero at
    1/lambda_bar, lambda_bar = ``D.lmax_bound``, on a plain layer over D with
    bias -beta/lambda_bar and scale 1/lambda_bar.

    A dense layer's [I | D] Lasso is pursued on D alone: the best identity
    code for a conv code z is u = max(x - D z - beta, 0), which leaves
    sum_j huber_beta((x - D z)_j) + beta 1.T z, 1-smooth in the residual, so
    its step is 1/lambda_bar too. From z = 0, a signal whose first step
    stays at zero is a fixed point, and (max(x - beta, 0), 0) its optimum;
    only the others run on. The test is that first step itself, so a skipped
    signal keeps the bits its own run would have given it.
    """
    bank, lmax = layer.kernel_bank, layer.kernel_bank.lmax_bound
    plain = LayerParams(bank, bias=np.full(bank.width, -beta / lmax), scale=1.0 / lmax)
    huber = beta if isinstance(layer, DenseLayer) else None

    def pursue(signals, steps):
        return _in_blocks(lambda block: _layer_step(plain, block, (steps,), True, huber=huber),
                          signals)[0]

    if huber is None:
        return pursue(signals, iterations)
    codes = np.zeros((len(signals), *bank.out_spatial, bank.width))
    live = np.flatnonzero(pursue(signals, 1).reshape(len(signals), bank.cols).any(axis=1))
    codes[live] = pursue(signals[live], iterations)
    identity = np.maximum(signals - bank.apply_array(codes) - beta, 0.0)
    return np.concatenate([identity, codes], axis=-1)


def _probe_stats(layers, probe, betas, config):
    """The logging probe on the held-out signals ``probe``: pursue the whole
    chain, reconstruct back down through every layer, and count the signal
    dimensions whose reconstruction error exceeds 2 beta_1. Returns that
    mean count and layer 1's mean Lasso objective; no probe array outlives
    the call, so none is held while the next batch trains."""
    codes = [probe]  # a layer's input is the last one's code
    for i, layer in enumerate(layers):
        iterations = config.probe_iterations if i else config.objective_iterations
        codes.append(_probe(layer, codes[-1], betas[i], iterations))
    recon = codes[-1]
    for layer in reversed(layers):
        recon = layer.dictionary().apply_array(recon)
    misses = np.abs(recon - probe) > 2.0 * betas[0]
    unsuccess = float(np.mean(np.sum(misses.reshape(len(probe), -1), axis=1)))
    residual = layers[0].dictionary().apply_array(codes[1]) - probe
    return unsuccess, float(np.mean(_objectives(betas[0], residual, codes[1])))


def _objectives(beta, residual, code):
    """Per-sample Lasso objectives of batched arrays from their residuals D code - x."""
    return _objective(beta, *(a.reshape(len(a), math.prod(a.shape[1:])) for a in (residual, code)))


def _fraction_beta(bank, signals, rho):
    """rho * max |F^T X| over a batch (B, *input), on the conv bank alone so
    that a dense layer and its plain twin get matching betas."""
    return float(rho * np.max(np.abs(bank.adjoint_array(signals))))


def _update_kernels(bank, grads, step):
    """Gradient step on the kernel taps, then unit renormalization."""
    taps = bank.taps - step * grads
    norms = kernel_norms(taps)  # non-finite iff some tap is, or the squares overflow
    if not np.all(np.isfinite(norms)):
        raise DivergenceError("kernel taps diverged during learning")
    if np.any(norms == 0.0):
        raise DivergenceError("kernel collapsed to zero during learning")
    taps /= norms
    return ConvDictionary(taps, bank.input_shape, bank.padding, dilation=bank.dilation)


def learn_dictionaries(model, dataset, config):
    """Alternating minimization: pursue codes, step the kernels, renormalize.

    Returns (model, records); the model's layers are updated in place with
    re-normalized kernel banks. Layer-1 reconstruction statistics on a
    held-out probe batch are logged each outer iteration.
    """
    if not isinstance(model, (MLCSCModel, MSDCSCModel)):
        raise ShapeError("learning supports plain and dense models")
    rng = np.random.default_rng(config.seed)
    shape = model.layers[0].kernel_bank.input_shape
    train = np.asarray(dataset.train_signals, dtype=float).reshape(-1, *shape)
    # (P, *input), held out from training
    probe = np.asarray(dataset.test_signals[: config.probe_size], dtype=float).reshape(-1, *shape)
    betas = [None] * len(model.layers)  # fixed at the first batch
    records = []
    for iteration in range(config.outer_iterations):
        start = time.perf_counter()
        batch_idx = rng.choice(train.shape[0], size=min(config.batch_size, train.shape[0]), replace=False)
        signals = train[batch_idx]  # (B, *input)
        for i, layer in enumerate(model.layers):
            bank = layer.kernel_bank
            if betas[i] is None:
                betas[i] = _fraction_beta(bank, signals, config.beta_value)
            pursuit_layer = type(layer).pursuit_mode(bank, betas[i])
            correlation = np.zeros_like(bank.taps)

            def train_block(block):
                (codes,) = _layer_step(pursuit_layer, block, (config.pursuit_config.iterations,))
                if config.dict_step > 0:
                    residual = block - pursuit_layer.dictionary().apply_array(codes)
                    residual = residual.reshape(len(codes), -1)
                    conv_codes = codes[..., -bank.width :].reshape(len(codes), -1)
                    correlation[...] += bank.tap_correlation(residual, conv_codes)
                return (codes,) if i + 1 < len(model.layers) else ()  # the last layer keeps none

            outputs = _in_blocks(train_block, signals)
            if config.dict_step > 0:
                # d/dF of the mean 0.5||X - D G||^2; a stack's identity channels have no taps
                grads = -correlation / len(signals)
                layer.kernel_bank = _update_kernels(bank, grads, config.dict_step)
            signals = outputs[0] if outputs else None

        unsuccess, objective = _probe_stats(model.layers, probe, betas, config)
        wall_ms = (time.perf_counter() - start) * 1e3
        records.append(TrainingRecord(iteration, unsuccess, objective, betas[0], wall_ms))
    return model, records


# -- dense-vs-plain reconstruction experiment ---------------------------------


def build_fig_models(dim, width=16, depth=2, kernel_size=3, seed=0):
    """Matched plain / dense model pair with identical layer-1 kernels, as
    ``model_from_config`` seeds them over 1-channel length-``dim`` signals."""
    doc = {"input_shape": [dim, 1], "depth": depth, "width": width,
           "kernel_size": kernel_size, "seed": seed}
    return model_from_config(dict(doc, model="mlcsc")), model_from_config(dict(doc, model="msdcsc"))


def reconstruction_experiment(
    dataset_spec=None, learn_config=None, width=16, depth=2, kernel_size=3
):
    """Train matched plain and dense models; log unsuccess counts per iteration.

    Betas are matched: both models share the dataset seed, identical
    layer-1 kernel initializations, and an init-time fractional beta (the
    dense layer's beta is computed from its conv block, so it equals the
    plain layer's).
    """
    dataset_spec = dataset_spec or SyntheticDatasetSpec()
    learn_config = learn_config or LearnConfig()
    dataset = generate_dataset(dataset_spec)
    models = build_fig_models(dataset_spec.dim, width=width, depth=depth,
                              kernel_size=kernel_size, seed=dataset_spec.seed)
    ml_records, dense_records = (learn_dictionaries(m, dataset, learn_config)[1] for m in models)
    return [
        ExperimentRecord(ml.iteration, ml.unsuccess_count, dense.unsuccess_count,
                         ml.objective, dense.objective, ml.wall_ms + dense.wall_ms)
        for ml, dense in zip(ml_records, dense_records)
    ]


FIG4_HEADER = [
    "iteration",
    "unsuccess_count_ml",
    "unsuccess_count_msd",
    "objective_ml",
    "objective_msd",
    "wall_ms",
]


def write_experiment_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIG4_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.iteration,
                    f"{row.unsuccess_count_ml:.17g}",
                    f"{row.unsuccess_count_msd:.17g}",
                    f"{row.objective_ml:.17g}",
                    f"{row.objective_msd:.17g}",
                    f"{row.wall_ms:.3f}",
                ]
            )


# -- unfolding sweep -----------------------------------------------------------


def build_pursuit_model(dim, width=8, depth=2, kernel_size=3, seed=0, beta=0.1, *, calibration):
    """Dense model whose layers take exact ISTA steps (c = 1/L, bias = -beta/L).

    ``beta`` is a fraction rho: each layer gets beta_i = rho * max |F_i^T x|
    over ``calibration`` (an (n_samples, dim) signal batch) propagated
    through the preceding single-step layers. Deeper layers see much smaller
    inputs than the raw signals, so a single absolute beta would make their
    Lasso problems degenerate (zero code optimal).
    """
    model = model_from_config({"model": "msdcsc", "input_shape": [dim, 1], "depth": depth,
                               "width": width, "kernel_size": kernel_size, "seed": seed})
    x = np.asarray(calibration, dtype=float)[..., None]
    for i, layer in enumerate(model.layers):
        layer_beta = _fraction_beta(layer.kernel_bank, x, beta)
        layer = model.layers[i] = type(layer).pursuit_mode(layer.kernel_bank, layer_beta)
        if i + 1 < depth:  # the last output feeds nothing
            (x,) = _in_blocks(lambda block: (msdcsc_layer_forward(layer, block, 0, "ista"),), x)
    return model


def unfold_objectives(model, signals, unfoldings, solver):
    """Per-(sample, layer) Lasso objectives and final codes at each unfolding.

    Objectives are measured on fixed reference problems, so extra unfolded
    iterations act on the same problem and ISTA monotonicity applies: layer
    1's input is the signal, layer i + 1's the single-step output of layer i
    on its own. The codes come from the genuine chained forward pass. One
    run from zero per layer on its reference input passes every depth and
    gives every objective, from the residual the step after each depth
    forms (one apply for the deepest), the next reference input (its first
    step) and every chained output on that same input: layer 1's, and
    unfolding 0's.

    Yields {unfolding: (objectives (B, depth), codes (B, F))} per block.
    """
    depths = sorted(set(unfoldings))
    steps = [1] + [1 + u for u in depths]
    momentum = _momentum(solver)
    signals = np.asarray(signals, dtype=float)[..., None]
    for start in range(0, len(signals), _BLOCK):
        ref = signals[start : start + _BLOCK]
        chained, objectives = [ref] * len(depths), []
        for i, layer in enumerate(model.layers):
            (first, _), *codes = _layer_step(layer, ref, steps, momentum, residuals=True)
            beta = -layer.bias[0] * layer.lipschitz()
            objectives.append([_objectives(beta, residual, code) for code, residual in codes])
            # the chained input is the reference input on layer 1 and at unfolding 0
            chained = [
                code if i == 0 or u == 0
                else _layer_step(layer, inputs, (1 + u,), momentum)[0]
                for u, (code, _), inputs in zip(depths, codes, chained)
            ]
            ref = first
        yield {
            u: (np.stack(per_layer, axis=1), codes.reshape(len(codes), -1))
            for u, per_layer, codes in zip(depths, zip(*objectives), chained)
        }


def unfold_sweep(unfoldings=(0, 1, 2), solver="ista", dataset_spec=None, width=8, depth=2,
                 kernel_size=3, beta=0.1, seed=0):
    """Pursuit objective + nearest-centroid accuracy across unfolding depths,
    one row per entry of ``unfoldings``, in the order given. Training blocks
    add their codes into class sums and test blocks are scored as they come."""
    dataset_spec = dataset_spec or SyntheticDatasetSpec(
        n_classes=20, dim=50, train_per_class=10, test_total=100, seed=seed
    )
    dataset = generate_dataset(dataset_spec)
    model = build_pursuit_model(
        dataset_spec.dim, width, depth, kernel_size, seed, beta, calibration=dataset.train_signals
    )
    classes = np.unique(np.concatenate([dataset.train_labels, dataset.test_labels]))
    indices = np.searchsorted(classes, dataset.train_labels)
    objectives, hits = {u: [] for u in unfoldings}, dict.fromkeys(unfoldings, 0)

    def blocks(signals):  # (unfolding, codes, sample slice) per block and depth
        for start, block in zip(range(0, len(signals), _BLOCK),
                                unfold_objectives(model, signals, unfoldings, solver)):
            for u, (objective, codes) in block.items():
                objectives[u].append(objective)
                yield u, codes, slice(start, start + _BLOCK)

    features = model.layers[-1].dictionary().cols
    sums = {u: np.zeros((classes.size, features)) for u in unfoldings}
    for u, codes, part in blocks(dataset.train_signals):
        add_class_sums(sums[u], codes, indices[part])
    centers = {u: class_centroids(sums[u], indices, classes) for u in unfoldings}
    for u, codes, part in blocks(dataset.test_signals):
        hits[u] += centroid_hits(centers[u], classes, codes, dataset.test_labels[part])
    rows, details = [], {}
    for unfolding in unfoldings:
        all_obj = np.vstack(objectives[unfolding])
        rows.append({"unfolding": int(unfolding), "solver": solver,
                     "mean_objective": float(all_obj.mean()),
                     "accuracy": hits[unfolding] / len(dataset.test_labels)})
        details[int(unfolding)] = all_obj
    return rows, details


SWEEP_HEADER = ["unfolding", "solver", "mean_objective", "accuracy"]


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row["unfolding"],
                    row["solver"],
                    f"{row['mean_objective']:.17g}",
                    f"{row['accuracy']:.17g}",
                ]
            )
