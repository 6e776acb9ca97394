"""Reference operators that only the tests use.

Not named ``oracles``: ``perfbench/oracles.py`` holds that module name, and
one pytest session over both test directories would import only one of them.
"""

import itertools

import numpy as np

from cscbench.dictionary import ConvDictionary, MSDDictionary, project_to_kernel_grad, to_matrix
from cscbench.learning import TrainingRecord
from cscbench.models import MSDCSCModel
from cscbench.numeric import _check_threshold, soft_threshold
from cscbench.pursuit import iterates_at, lipschitz_bound


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


def textbook_fista(mat, signal, beta, lipschitz, steps, *, momentum=True, nonneg=False,
                   huber=None):
    """Beck & Teboulle's FISTA from zero, written out: x_k = prox(y_k - grad f(y_k) / L),
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, y_{k+1} = x_k + ((t_k - 1) / t_{k+1}) (x_k - x_{k-1});
    ISTA (y_{k+1} = x_k) without ``momentum``. f is 0.5||mat y - signal||^2, with gradient
    mat.T (mat y - signal), or with ``huber`` = h the Huber loss sum_j huber_h((signal - mat y)_j),
    with gradient mat.T max(mat y - signal, -h). The prox is the soft threshold at beta / L, or
    max(. - beta / L, 0) with ``nonneg``."""
    prox = soft_threshold_nonneg if nonneg else soft_threshold
    x_prev = y = np.zeros(mat.shape[1])
    t = 1.0
    for _ in range(steps):
        gap = mat @ y - signal
        if huber is not None:
            gap = np.maximum(gap, -huber)
        x = prox(y - mat.T @ gap / lipschitz, beta / lipschitz)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev) if momentum else x
        x_prev, t = x, t_next
    return x


def last_iterate(iterates, steps):
    """The code after ``steps`` >= 1 steps of a ``proximal_gradient`` run."""
    return iterates_at(iterates, (steps,))[0]


def _stack(codes, bank):
    """Batched [I | D] codes (B, rows + cols) of a dense layer over ``bank`` as
    the next layer's flat signals: per position, the identity entries' c
    channels, then the conv entries' width channels."""
    identity = codes[:, : bank.rows].reshape(len(codes), -1, bank.channels)
    conv = codes[:, bank.rows :].reshape(len(codes), -1, bank.width)
    return np.concatenate([identity, conv], axis=2).reshape(len(codes), -1)


def _unstack(signals, bank):
    """Inverse of ``_stack``."""
    per_position = signals.reshape(len(signals), -1, bank.channels + bank.width)
    return np.hstack([
        per_position[..., : bank.channels].reshape(len(signals), -1),
        per_position[..., bank.channels :].reshape(len(signals), -1),
    ])


def reference_learn(model, dataset, config):
    """``learning.learn_dictionaries`` written from its definitions, with dense
    matrices and per-signal loops; ``model`` is left as it was.

    Each outer iteration draws its training batch as the loop does; each
    layer pursues it with ``pursuit_config.iterations`` nonnegative ISTA
    steps at 1/``lipschitz_bound`` on D, or on [I | D] = hstack(I, D) for a
    dense model, steps its taps by ``project_to_kernel_grad`` of the dense
    gradient of the mean 0.5||X - D G||^2, renormalizes each kernel, and
    hands its codes on. The probe runs FISTA at 1/lambda_bar,
    lambda_bar = ``lmax_bound``, on D: the Lasso for a plain layer, the Huber
    loss for a dense one, whose identity code is then max(x - D z - beta, 0).
    It reconstructs back down and counts, per probe signal, the entries off
    by more than 2 beta_1. Returns (records with ``wall_ms`` 0, final banks).
    """
    msd = isinstance(model, MSDCSCModel)
    banks = [layer.kernel_bank for layer in model.layers]

    def matrix(bank):
        conv = to_matrix(bank)
        return np.hstack([np.eye(bank.rows), conv]) if msd else conv

    rng = np.random.default_rng(config.seed)
    train = np.asarray(dataset.train_signals, dtype=float)
    probe = np.asarray(dataset.test_signals[: config.probe_size], dtype=float)
    betas = [None] * len(banks)
    records = []
    for iteration in range(config.outer_iterations):
        batch = rng.choice(len(train), size=min(config.batch_size, len(train)), replace=False)
        signals = train[batch]
        for i, bank in enumerate(banks):
            mat = matrix(bank)
            if betas[i] is None:
                betas[i] = float(config.beta_value * np.max(np.abs(signals @ to_matrix(bank))))
            lipschitz = lipschitz_bound(MSDDictionary(bank) if msd else bank)
            codes = np.array([
                textbook_fista(mat, x, betas[i], lipschitz, config.pursuit_config.iterations,
                               momentum=False, nonneg=True)
                for x in signals
            ])
            if config.dict_step > 0:
                dense_grad = -(signals - codes @ mat.T).T @ codes / len(codes)
                grads = project_to_kernel_grad(dense_grad, MSDDictionary(bank) if msd else bank)
                taps = bank.taps - config.dict_step * grads
                for kernel in taps:
                    kernel /= np.linalg.norm(kernel)
                banks[i] = ConvDictionary(taps, bank.input_shape, bank.padding,
                                          dilation=bank.dilation)
            signals = _stack(codes, bank) if msd else codes

        x, probe_codes = probe, []
        for i, bank in enumerate(banks):
            steps = config.probe_iterations if i else config.objective_iterations
            conv = to_matrix(bank)
            z = np.array([
                textbook_fista(conv, s, betas[i], bank.lmax_bound, steps, nonneg=True,
                               huber=betas[i] if msd else None)
                for s in x
            ])
            codes = np.hstack([np.maximum(x - z @ conv.T - betas[i], 0.0), z]) if msd else z
            probe_codes.append(codes)
            x = _stack(codes, bank) if msd else codes
        recon = probe_codes[-1]
        for i in range(len(banks) - 1, -1, -1):
            recon = recon @ matrix(banks[i]).T
            if msd and i > 0:
                recon = _unstack(recon, banks[i - 1])
        first = probe_codes[0]
        objective = (0.5 * np.sum((probe - first @ matrix(banks[0]).T) ** 2, axis=1)
                     + betas[0] * np.sum(np.abs(first), axis=1))
        records.append(TrainingRecord(
            iteration=iteration,
            unsuccess_count=float(np.mean(np.sum(np.abs(recon - probe) > 2.0 * betas[0], axis=1))),
            objective=float(np.mean(objective)),
            beta=betas[0],
            wall_ms=0.0,
        ))
    return records, banks
