"""Executable verifiers for the theory behind the models.

Each verifier is a pure function; ``run_verification_suite`` executes the
whole battery on seeded random instances and returns one JSON-ready
report per check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import dictionary as dct
from . import pursuit
from .dictionary import (
    SAME,
    ConvDictionary,
    MSDDictionary,
    mutual_coherence,
    random_dictionary,
    stripe_sparsity,
    to_matrix,
)
from .errors import BoundInapplicableError, ShapeError
from .models import SOFT, DenseLayer, LayerParams, MLCSCModel, mlcsc_forward, msdcsc_layer_forward
from .numeric import relu, symmetric_eigs
from .pursuit import LassoProblem, lasso_objective


@dataclass
class ReconstructionReport:
    """Per-dimension success flags: dimension j fails when |xi_j - x_j| > 2 beta."""

    xi: np.ndarray
    target: np.ndarray
    beta: float | np.ndarray
    unsuccess_mask: np.ndarray
    unsuccess_count: int


@dataclass
class SpectrumCheck:
    a_eigs: np.ndarray
    b_eigs: np.ndarray
    zero_count_expected: int
    max_abs_deviation: float


def lemma1_threshold(mu):
    """Uniqueness sparsity level 0.5 * (1 + 1/mu) of a dictionary of mutual
    coherence ``mu``; +inf for orthogonal columns (mu = 0)."""
    if mu == 0.0:
        return float("inf")
    return 0.5 * (1.0 + 1.0 / mu)


def lemma2_bound(mus, stripes, eps0):
    """Layered-thresholding error bound eps0^2 * prod 4 / (1 - (2 gamma - 1) mu)."""
    if len(mus) != len(stripes):
        raise ShapeError("one coherence and one stripe sparsity per layer")
    bound = float(eps0) ** 2
    for i, (mu, gamma) in enumerate(zip(mus, stripes)):
        denom = 1.0 - (2.0 * gamma - 1.0) * mu
        if denom <= 0.0:
            raise BoundInapplicableError(
                f"layer {i}: stripe sparsity {gamma} violates "
                f"(2*gamma - 1) * mu < 1 with mu = {mu}",
                layer=i,
            )
        bound *= 4.0 / denom
    return bound


def lemma3_check(a, tol=1e-10):
    """Gram spectrum of an identity-augmented matrix [I | A].

    B = [I | A].T @ [I | A] = [[I, A], [A.T, A.T A]] has eigenvalue multiset
    {0 x cols(A)} U {eig(A A.T) + 1}: the nonzero part of the spectrum is
    eig(I + A A.T) and the rank of B equals rows(A).  This is the Gram of an
    identity-augmented dictionary, so the augmentation shifts the largest
    eigenvalue (and hence the Lipschitz constant 2*lambda_max) by exactly +1
    (respectively +2).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or not np.any(a):
        raise ShapeError("A must be a nonzero 2D matrix")
    n, m = a.shape
    gram = a @ a.T
    a_eigs = symmetric_eigs(gram, tol=tol)
    b = np.block([[np.eye(n), a], [a.T, a.T @ a]])
    b_eigs = symmetric_eigs(b, tol=tol)
    expected = np.sort(np.concatenate([np.zeros(m), a_eigs + 1.0]))
    deviation = float(np.max(np.abs(b_eigs - expected)))
    return SpectrumCheck(
        a_eigs=a_eigs,
        b_eigs=b_eigs,
        zero_count_expected=m,
        max_abs_deviation=deviation,
    )


def reconstruction_report(problem, code):
    """Definition-style per-dimension success test on xi = D code, defined
    for a scalar beta only."""
    if np.ndim(problem.beta) != 0:
        raise ShapeError("the reconstruction test needs a scalar beta")
    code = np.asarray(code, dtype=float)
    xi = dct.apply(problem.dictionary, code)
    target = problem.signal
    mask = np.abs(xi - target) > 2.0 * problem.beta
    return ReconstructionReport(
        xi=xi,
        target=target,
        beta=problem.beta,
        unsuccess_mask=mask,
        unsuccess_count=int(np.count_nonzero(mask)),
    )


def theorem1_compare(ml_problem, gamma_ml):
    """Objective of the identity-corrected code vs the plain objective.

    Builds eta = (corrections | gamma_ml) where the identity slot carries
    target_j - xi_j on every unsuccess dimension, and returns
    (eta, f_ml, f_msd). f_msd <= f_ml, strictly when any dimension fails.
    """
    gamma_ml = np.asarray(gamma_ml, dtype=float)
    report = reconstruction_report(ml_problem, gamma_ml)
    corrections = np.where(
        report.unsuccess_mask, report.target - report.xi, 0.0
    )
    eta = np.concatenate([corrections, gamma_ml])
    rows = ml_problem.dictionary.shape[0]
    lifted = np.hstack([np.eye(rows), to_matrix(ml_problem.dictionary)])
    msd_problem = LassoProblem(lifted, ml_problem.signal, ml_problem.beta)
    f_ml = lasso_objective(ml_problem, gamma_ml)
    f_msd = lasso_objective(msd_problem, eta)
    return eta, f_ml, f_msd


def proposition1_check(layer, x):
    """Max |layer path - concat path| for one dense layer on an input x >= 0.

    The layer path is the model's own dense layer with no unfolding,
    ``msdcsc_layer_forward(layer, x, 0)``, which for a network layer (step
    c = 1, passthrough bias 0) is the concat path; that one evaluates
    concatenate(x, ReLU(conv(x, F) + bias)) through the dense matrix.
    """
    x = np.asarray(x, dtype=float)
    conv = layer.kernel_bank
    if x.shape != conv.input_shape:
        raise ShapeError(
            f"input of shape {x.shape} does not match dictionary input "
            f"{conv.input_shape}"
        )
    conv_out = (to_matrix(conv).T @ x.ravel()).reshape(*conv.out_spatial, conv.width)
    direct = np.concatenate([x, relu(conv_out + layer.bias)], axis=-1)
    return float(np.max(np.abs(msdcsc_layer_forward(layer, x, 0) - direct)))


# -- seeded verification battery ---------------------------------------------


def check_lemma3(seed=0, instances=30, tol=1e-8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 21))
        a = rng.standard_normal((n, m))
        worst = max(worst, lemma3_check(a).max_abs_deviation)
    return {
        "name": "lemma3_spectrum",
        "instances": instances,
        "max_deviation": worst,
        "pass": worst < tol,
    }


def check_lipschitz_shift(seed=0, instances=5, tol=1e-8):
    """L of [I | D] minus L of D equals 2 (dense-connection Lipschitz shift)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        length = int(rng.integers(6, 12))
        width = int(rng.integers(1, 4))
        bank = random_dictionary(
            (length, 1), (3,), width, dilation=1, padding=SAME,
            seed=int(rng.integers(0, 2**31)),
        )
        l_conv = pursuit.lipschitz_constant(bank)
        l_msd = pursuit.lipschitz_constant(MSDDictionary(bank))
        worst = max(worst, abs(l_msd - l_conv - 2.0))
    return {
        "name": "lipschitz_shift",
        "instances": instances,
        "max_deviation": worst,
        "pass": worst < tol,
    }


def forced_unsuccess_instance(rng, beta=0.1):
    """Random dense Lasso instance whose reconstruction fails in >= 1 dimension."""
    n = int(rng.integers(3, 8))
    m = int(rng.integers(2, 10))
    mat = rng.standard_normal((n, m))
    gamma = rng.standard_normal(m)
    xi = mat @ gamma
    target = xi.copy()
    fail_dims = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    target[fail_dims] += rng.choice([-1.0, 1.0], size=fail_dims.size) * (
        2.0 * beta + rng.uniform(0.5, 3.0, size=fail_dims.size)
    )
    return LassoProblem(mat, target, beta), gamma


def check_theorem1(seed=0, instances=100, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(instances):
        problem, gamma = forced_unsuccess_instance(rng)
        report = reconstruction_report(problem, gamma)
        eta, f_ml, f_msd = theorem1_compare(problem, gamma)
        ok = ok and report.unsuccess_count > 0 and f_msd < f_ml
        delta = report.xi - report.target
        expected_gap = float(
            np.sum(
                (-0.5 * delta**2 + problem.beta * np.abs(delta))[
                    report.unsuccess_mask
                ]
            )
        )
        worst = max(worst, abs((f_msd - f_ml) - expected_gap))
    # all-success instances must give exactly equal objectives
    for _ in range(20):
        n, m = int(rng.integers(3, 8)), int(rng.integers(2, 10))
        mat = rng.standard_normal((n, m))
        gamma = rng.standard_normal(m)
        problem = LassoProblem(mat, mat @ gamma, 0.5)
        _, f_ml, f_msd = theorem1_compare(problem, gamma)
        worst = max(worst, abs(f_msd - f_ml))
    return {
        "name": "theorem1_objective_gap",
        "instances": instances + 20,
        "max_deviation": worst,
        "pass": ok and worst < tol,
    }


def check_proposition1(seed=0, instances=50, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        length = int(rng.integers(5, 12))
        channels = int(rng.integers(1, 3))
        width = int(rng.integers(1, 4))
        bank = random_dictionary(
            (length, channels), (3,), width, dilation=int(rng.integers(1, 3)),
            padding=SAME, seed=int(rng.integers(0, 2**31)),
        )
        layer = DenseLayer(bank, bias=rng.uniform(-1.0, 0.0, size=width), scale=1.0)
        x = np.abs(rng.standard_normal((length, channels)))
        worst = max(worst, proposition1_check(layer, x))
    return {
        "name": "proposition1_equivalence",
        "instances": instances,
        "max_deviation": worst,
        "pass": worst < tol,
    }


def _orthonormal_pair(rng):
    angle = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c, s]), np.array([-s, c])


def planted_lemma2_instance(seed, eps0=0.1):
    """Two-layer zero-coherence chain with a planted code and exact-norm noise.

    Layer 1: length-4 signal, k=2 dilation-2 kernels whose shifted copies
    have disjoint supports; layer 2: a single-position orthonormal pair.
    Both dictionaries have mu = 0 and orthonormal columns, so layered
    thresholding recovers the planted codes up to the noise level.
    """
    rng = np.random.default_rng(seed)
    k1a, k1b = _orthonormal_pair(rng)
    d1 = ConvDictionary(
        np.stack([k1a, k1b])[..., None], input_shape=(4, 1), padding="valid", dilation=2
    )
    taps = rng.standard_normal((2, 2, 2))
    flat = taps.reshape(2, 4)  # a view: the steps below act on the taps
    # Gram-Schmidt so the two single-position columns are orthonormal
    flat[0] /= np.linalg.norm(flat[0])
    flat[1] -= (flat[1] @ flat[0]) * flat[0]
    flat[1] /= np.linalg.norm(flat[1])
    d2 = ConvDictionary(taps, input_shape=(2, 2), padding="valid")
    gamma2 = rng.uniform(1.0, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    gamma1 = d2.apply(gamma2)
    clean = d1.apply(gamma1)
    noise = rng.standard_normal(clean.shape)
    noise *= eps0 / np.linalg.norm(noise)
    signal = clean + noise
    return d1, d2, gamma1, gamma2, signal


def check_lemma2(seed=0, instances=20, eps0=0.1, threshold=0.01):
    worst = -np.inf
    ok = True
    for i in range(instances):
        d1, d2, gamma1, gamma2, signal = planted_lemma2_instance(seed + i, eps0)
        # layered soft thresholding: the plain model at step 1, bias -threshold
        model = MLCSCModel(
            [LayerParams(d, bias=np.full(d.width, -threshold), scale=1.0) for d in (d1, d2)],
            SOFT,
        )
        codes = mlcsc_forward(model, signal.reshape(d1.input_shape))
        mus = [mutual_coherence(d1), mutual_coherence(d2)]
        stripes = [stripe_sparsity(gamma1, d1), stripe_sparsity(gamma2, d2)]
        for layer in (1, 2):
            truth = gamma1 if layer == 1 else gamma2
            err = float(np.sum((truth - codes[layer - 1].ravel()) ** 2))
            bound = lemma2_bound(mus[:layer], stripes[:layer], eps0)
            worst = max(worst, err - bound)
            ok = ok and err <= bound
    return {
        "name": "lemma2_error_bound",
        "instances": instances,
        "max_deviation": worst,
        "pass": ok,
    }


def check_dilation_coherence(seed=0, instances=100):
    """mu = 0 at s=2 for the 2x2-on-4x4 family; mu(s=1) > mu(s=2) generically."""
    rng = np.random.default_rng(seed)
    wins = 0
    zero_ok = True
    for _ in range(instances):
        taps = rng.standard_normal((1, 2, 2, 1))
        d1 = ConvDictionary(taps, (4, 4, 1), "valid", dilation=1)
        d2 = ConvDictionary(taps, (4, 4, 1), "valid", dilation=2)
        mu1, mu2 = mutual_coherence(d1), mutual_coherence(d2)
        zero_ok = zero_ok and mu2 == 0.0
        if mu1 > mu2:
            wins += 1
    return {
        "name": "dilation_coherence",
        "instances": instances,
        "max_deviation": float(instances - wins),
        "pass": zero_ok and wins >= instances - 1,
    }


def run_verification_suite(seed=0):
    return [
        check_lemma3(seed),
        check_lipschitz_shift(seed),
        check_theorem1(seed),
        check_proposition1(seed),
        check_lemma2(seed),
        check_dilation_coherence(seed),
    ]


def suite_to_json(reports):
    return json.dumps(
        {"checks": reports, "all_pass": all(r["pass"] for r in reports)},
        indent=2,
        default=float,
    )
