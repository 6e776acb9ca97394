"""Alternating dictionary learning and the synthetic experiments.

Training works on 1D signals. Batch pursuit materializes each layer's
dictionary once per outer iteration and runs a vectorized ISTA over the
mini-batch; the per-sample solvers in :mod:`cscbench.pursuit` stay the
reference implementation.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SyntheticDatasetSpec, classify, generate_dataset
from .dictionary import (
    SAME,
    ConvDictionary,
    ConvKernel,
    MSDDictionary,
    project_to_kernel_grad,
    random_dictionary,
    to_matrix,
)
from .errors import DivergenceError, ShapeError
from .models import (
    LayerParams,
    MLCSCModel,
    MSDCSCModel,
    msdcsc_layer_forward,
    stack_to_code,
)
from .pursuit import LassoProblem, PursuitConfig, lasso_objective, lipschitz_bound

FIXED = "fixed"
INIT_FRACTION = "init-fraction"
TRACE_FRACTION = "trace-max-fraction"


@dataclass
class LearnConfig:
    outer_iterations: int = 30
    pursuit_config: PursuitConfig = field(
        default_factory=lambda: PursuitConfig(iterations=20, nonneg=True)
    )
    dict_step: float = 0.3
    beta_schedule: str = TRACE_FRACTION
    beta_value: float = 0.1  # beta itself for "fixed", rho for the fraction modes
    seed: int = 0
    batch_size: int = 128
    probe_size: int = 64
    probe_iterations: int = 80  # accelerated pursuit depth for logging probes
    # deeper pursuit for the first (cheap) probe layer: the logged objective
    # comparison needs near-optimal codes, the chain layers only need
    # reconstruction-grade ones
    objective_iterations: int = 400

    def __post_init__(self):
        if self.dict_step < 0:
            raise ShapeError("dict_step must be nonnegative")
        if self.beta_schedule not in (FIXED, INIT_FRACTION, TRACE_FRACTION):
            raise ShapeError(f"unknown beta schedule {self.beta_schedule!r}")
        if self.beta_schedule != FIXED and not 0.0 < self.beta_value < 1.0:
            raise ShapeError("fraction schedules need rho in (0, 1)")


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


def _batched_ista(matrix, signals, beta, iterations, lipschitz=None, momentum=False):
    """Nonnegative ISTA over a batch of column signals with a dense matrix.

    ``momentum=True`` adds the standard accelerated extrapolation; used for
    logging-only probes where a near-optimal objective matters more than the
    plain-iteration semantics. Without ``lipschitz`` the step constant is
    the exact one of ``matrix``.
    """
    if lipschitz is None:
        lipschitz = lipschitz_bound(matrix)
    codes = np.zeros((matrix.shape[1], signals.shape[1]))
    threshold = beta / lipschitz
    prev = codes
    t_k = 1.0
    for _ in range(iterations):
        if momentum:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
            z = codes + ((t_k - 1.0) / t_next) * (codes - prev)
            t_k = t_next
            prev = codes
        else:
            z = codes
        grad = matrix.T @ (matrix @ z - signals)
        codes = np.maximum(z - grad / lipschitz, threshold) - threshold
        np.maximum(codes, 0.0, out=codes)
    if not np.all(np.isfinite(codes)):
        raise DivergenceError("batched pursuit produced non-finite codes")
    return codes, lipschitz


def _layer_dictionary(layer, msd):
    return MSDDictionary(layer.kernel_bank) if msd else layer.kernel_bank


def _codes_to_next_input(codes, layer, msd):
    """Map batch codes (cols, B) to the next layer's flat signals (rows', B)."""
    conv = layer.kernel_bank
    n_pos, width = conv.n_positions, conv.width
    batch = codes.shape[1]
    if not msd:
        return codes  # (n_pos * width, B), already position-major
    c_in = conv.channels
    identity_part = codes[: n_pos * c_in].reshape(n_pos, c_in, batch)
    conv_part = codes[n_pos * c_in :].reshape(n_pos, width, batch)
    stacked = np.concatenate([identity_part, conv_part], axis=1)
    return stacked.reshape(n_pos * (c_in + width), batch)


def _next_input_to_codes(signals, layer, msd):
    """Inverse of :func:`_codes_to_next_input`: flat signals back to codes."""
    if not msd:
        return signals
    conv = layer.kernel_bank
    n_pos, width, c_in = conv.n_positions, conv.width, conv.channels
    batch = signals.shape[1]
    stacked = signals.reshape(n_pos, c_in + width, batch)
    identity_part = stacked[:, :c_in].reshape(n_pos * c_in, batch)
    conv_part = stacked[:, c_in:].reshape(n_pos * width, batch)
    return np.concatenate([identity_part, conv_part], axis=0)


def _fraction_beta(layer, matrix, signals, rho, msd):
    """rho * max |D^T X| over the batch, on the conv block only for dense
    layers so that a dense layer and its plain twin get matching betas."""
    conv_block = matrix[:, layer.kernel_bank.rows :] if msd else matrix
    return float(rho * np.max(np.abs(conv_block.T @ signals)))


def _update_kernels(layer, dense_grad, step, template):
    """Projected gradient step on the kernel taps, then unit renormalization."""
    grads = project_to_kernel_grad(dense_grad, template)
    conv = layer.kernel_bank
    kernels = []
    for kernel, grad in zip(conv.kernels, grads):
        taps = kernel.taps - step * grad
        norm = np.linalg.norm(taps)
        if norm == 0.0:
            raise DivergenceError("kernel collapsed to zero during learning")
        kernels.append(ConvKernel(taps / norm, dilation=kernel.dilation))
    return ConvDictionary(kernels, conv.input_shape, conv.padding)


def learn_dictionaries(model, dataset, config):
    """Alternating minimization: pursue codes, step the kernels, renormalize.

    Returns (model, records); the model's layers are updated in place with
    re-normalized kernel banks. Layer-1 reconstruction statistics on a
    held-out probe batch are logged each outer iteration.
    """
    msd = isinstance(model, MSDCSCModel)
    if not isinstance(model, (MLCSCModel, MSDCSCModel)):
        raise ShapeError("learning supports plain and dense models")
    rng = np.random.default_rng(config.seed)
    train = np.asarray(dataset.train_signals, dtype=float)
    probe = np.asarray(
        dataset.test_signals[: config.probe_size], dtype=float
    ).T  # (dim, P), held out from training
    n_layers = len(model.layers)
    betas = [
        config.beta_value if config.beta_schedule == FIXED else None
        for _ in range(n_layers)
    ]
    records = []
    for iteration in range(config.outer_iterations):
        start = time.perf_counter()
        batch_idx = rng.choice(train.shape[0], size=min(config.batch_size, train.shape[0]), replace=False)
        signals = train[batch_idx].T  # (dim, B)
        for i, layer in enumerate(model.layers):
            dictionary = _layer_dictionary(layer, msd)
            matrix = to_matrix(dictionary)
            if betas[i] is None or config.beta_schedule == TRACE_FRACTION:
                betas[i] = _fraction_beta(
                    layer, matrix, signals, config.beta_value, msd
                )
            codes, _ = _batched_ista(
                matrix, signals, betas[i], config.pursuit_config.iterations,
                lipschitz=lipschitz_bound(dictionary),
            )
            if config.dict_step > 0:
                residual = signals - matrix @ codes
                dense_grad = -(residual @ codes.T) / codes.shape[1]
                layer.kernel_bank = _update_kernels(
                    layer, dense_grad, config.dict_step, dictionary
                )
            signals = _codes_to_next_input(codes, layer, msd)

        # probe: pursue the whole chain on held-out signals, reconstruct
        # back down through every layer, and count the signal dimensions
        # whose reconstruction error exceeds 2 beta_1
        matrices = []
        probe_codes = []
        x = probe
        for i, layer in enumerate(model.layers):
            dictionary = _layer_dictionary(layer, msd)
            matrix = to_matrix(dictionary)
            iterations = (
                config.objective_iterations if i == 0 else config.probe_iterations
            )
            codes, _ = _batched_ista(
                matrix, x, betas[i], iterations,
                lipschitz=lipschitz_bound(dictionary), momentum=True,
            )
            matrices.append(matrix)
            probe_codes.append(codes)
            x = _codes_to_next_input(codes, layer, msd)
        recon_codes = probe_codes[-1]
        for i in range(n_layers - 1, 0, -1):
            recon_signals = matrices[i] @ recon_codes
            recon_codes = _next_input_to_codes(
                recon_signals, model.layers[i - 1], msd
            )
        reconstruction = matrices[0] @ recon_codes
        unsuccess = float(
            np.mean(
                np.sum(np.abs(reconstruction - probe) > 2.0 * betas[0], axis=0)
            )
        )
        residual = probe - matrices[0] @ probe_codes[0]
        objective = float(
            np.mean(
                0.5 * np.sum(residual**2, axis=0)
                + betas[0] * np.sum(np.abs(probe_codes[0]), axis=0)
            )
        )
        records.append(
            TrainingRecord(
                iteration=iteration,
                unsuccess_count=unsuccess,
                objective=objective,
                beta=betas[0],
                wall_ms=(time.perf_counter() - start) * 1e3,
            )
        )
    return model, records


# -- dense-vs-plain reconstruction experiment ---------------------------------


def build_fig_models(dim, width=16, depth=2, kernel_size=3, seed=0):
    """Matched plain / dense model pair with identical layer-1 kernels."""
    dilations = [1 + (i % 3) for i in range(depth)]
    ml_layers = []
    msd_layers = []
    channels_ml = 1
    channels_msd = 1
    for i in range(depth):
        bank_ml = random_dictionary(
            (dim, channels_ml), (kernel_size,), width,
            dilation=dilations[i], padding=SAME, seed=seed + i,
        )
        bank_msd = random_dictionary(
            (dim, channels_msd), (kernel_size,), width,
            dilation=dilations[i], padding=SAME, seed=seed + i,
        )
        ml_layers.append(LayerParams(bank_ml, bias=np.zeros(width)))
        msd_layers.append(LayerParams(bank_msd, bias=np.zeros(width)))
        channels_ml = width
        channels_msd = channels_msd + width
    return MLCSCModel(ml_layers), MSDCSCModel(msd_layers)


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
    learn_config = learn_config or LearnConfig(beta_schedule=INIT_FRACTION)
    if learn_config.beta_schedule == TRACE_FRACTION:
        # per-iteration recomputation would decouple the two runs' betas
        learn_config = replace(learn_config, beta_schedule=INIT_FRACTION)
    dataset = generate_dataset(dataset_spec)
    ml_model, msd_model = build_fig_models(
        dataset_spec.dim,
        width=width,
        depth=depth,
        kernel_size=kernel_size,
        seed=dataset_spec.seed,
    )
    _, ml_records = learn_dictionaries(ml_model, dataset, learn_config)
    _, msd_records = learn_dictionaries(msd_model, dataset, learn_config)
    rows = [
        ExperimentRecord(
            iteration=ml.iteration,
            unsuccess_count_ml=ml.unsuccess_count,
            unsuccess_count_msd=msd.unsuccess_count,
            objective_ml=ml.objective,
            objective_msd=msd.objective,
            wall_ms=ml.wall_ms + msd.wall_ms,
        )
        for ml, msd in zip(ml_records, msd_records)
    ]
    return rows


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


def build_pursuit_model(
    dim, width=8, depth=2, kernel_size=3, seed=0, beta=0.1, calibration=None
):
    """Dense model whose layers take exact ISTA steps (c = 1/L, bias = -beta/L).

    With ``calibration`` (an (n_samples, dim) signal batch), ``beta`` is read
    as a fraction rho and each layer gets beta_i = rho * max |F_i^T x| over
    the batch propagated through the preceding single-step layers.  Deeper
    layers see much smaller inputs than the raw signals, so a single absolute
    beta would make their Lasso problems degenerate (zero code optimal).
    """
    layers = []
    channels = 1
    inputs = None
    if calibration is not None:
        inputs = [x.reshape(-1, 1) for x in np.asarray(calibration, dtype=float)]
    for i in range(depth):
        bank = random_dictionary(
            (dim, channels), (kernel_size,), width,
            dilation=1 + (i % 3), padding=SAME, seed=seed + i,
        )
        layer_beta = beta
        if inputs is not None:
            layer_beta = beta * max(
                np.max(np.abs(bank.apply_adjoint(x.ravel()))) for x in inputs
            )
        layer = LayerParams.pursuit_mode(bank, layer_beta, msd=True)
        layers.append(layer)
        if inputs is not None:
            inputs = [msdcsc_layer_forward(layer, x, 0, "ista") for x in inputs]
        channels += width
    return MSDCSCModel(layers)


def reference_layer_inputs(model, signals):
    """Per-layer inputs from the single-step (unfolding = 0) forward pass.

    Objectives at different unfolding depths are only comparable on a fixed
    per-layer problem; chaining unfolded outputs would change layer i's
    input (and hence its Lasso objective) along with the unfolding depth.
    """
    signals = np.asarray(signals, dtype=float)
    inputs = [[] for _ in model.layers]
    for idx in range(signals.shape[0]):
        x = signals[idx].reshape(-1, 1)
        for li, layer in enumerate(model.layers):
            inputs[li].append(x)
            x = msdcsc_layer_forward(layer, x, 0, "ista")
    return inputs


def unfold_objectives(model, signals, unfolding, solver, layer_inputs=None):
    """Per-(sample, layer) Lasso objectives plus final codes.

    Objectives are measured on the fixed reference problems from
    ``reference_layer_inputs`` (so extra unfolded iterations act on the same
    problem and ISTA monotonicity applies); the returned codes come from the
    genuine chained forward pass at the requested unfolding depth.

    Returns (objectives of shape (n_samples, depth), codes (n_samples, F)).
    """
    signals = np.asarray(signals, dtype=float)
    n = signals.shape[0]
    if layer_inputs is None:
        layer_inputs = reference_layer_inputs(model, signals)
    objectives = np.empty((n, len(model.layers)))
    codes = None
    for idx in range(n):
        x = signals[idx].reshape(-1, 1)
        for li, layer in enumerate(model.layers):
            ref = layer_inputs[li][idx]
            out_ref = msdcsc_layer_forward(layer, ref, unfolding, solver)
            c_in = layer.kernel_bank.channels
            beta = -layer.bias[0] * layer.lipschitz(msd=True)
            problem = LassoProblem(
                MSDDictionary(layer.kernel_bank), ref.ravel(), beta
            )
            objectives[idx, li] = lasso_objective(
                problem, stack_to_code(out_ref, c_in)
            )
            # at unfolding 0 the chained input is the reference input
            x = out_ref if unfolding == 0 else msdcsc_layer_forward(
                layer, x, unfolding, solver
            )
        flat = x.ravel()
        if codes is None:
            codes = np.empty((n, flat.size))
        codes[idx] = flat
    return objectives, codes


def unfold_sweep(
    unfoldings=(0, 1, 2),
    solver="ista",
    dataset_spec=None,
    width=8,
    depth=2,
    kernel_size=3,
    beta=0.1,
    seed=0,
):
    """Pursuit objective + nearest-centroid accuracy across unfolding depths."""
    dataset_spec = dataset_spec or SyntheticDatasetSpec(
        n_classes=20, dim=50, train_per_class=10, test_total=100, seed=seed
    )
    dataset = generate_dataset(dataset_spec)
    model = build_pursuit_model(
        dataset_spec.dim,
        width=width,
        depth=depth,
        kernel_size=kernel_size,
        seed=seed,
        beta=beta,
        calibration=dataset.train_signals,
    )
    train_inputs = reference_layer_inputs(model, dataset.train_signals)
    test_inputs = reference_layer_inputs(model, dataset.test_signals)
    rows = []
    details = {}
    for unfolding in unfoldings:
        train_obj, train_codes = unfold_objectives(
            model, dataset.train_signals, unfolding, solver, train_inputs
        )
        test_obj, test_codes = unfold_objectives(
            model, dataset.test_signals, unfolding, solver, test_inputs
        )
        accuracy = classify(
            train_codes, dataset.train_labels, test_codes, dataset.test_labels
        )
        all_obj = np.vstack([train_obj, test_obj])
        rows.append(
            {
                "unfolding": int(unfolding),
                "solver": solver,
                "mean_objective": float(all_obj.mean()),
                "accuracy": accuracy,
            }
        )
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
