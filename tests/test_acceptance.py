"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import sys
import time

import numpy as np

from cscbench.analysis import (
    check_dilation_coherence,
    check_lemma2,
    check_lemma3,
    check_lipschitz_shift,
    check_proposition1,
    check_theorem1,
)
from cscbench.dictionary import SAME, random_dictionary, to_matrix
from cscbench.learning import reconstruction_experiment, unfold_sweep
from cscbench.models import (
    NONNEG,
    SOFT,
    LayerParams,
    MLCSCModel,
    ResCSCModel,
    mlcsc_forward,
    model_from_config,
    rescsc_forward,
)
from cscbench.numeric import soft_threshold
from cscbench.pursuit import LassoProblem, PursuitConfig, fista, ista


def _report(number, title, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title}"
    print(line, file=sys.__stdout__, flush=True)
    return ok


def test_criterion_1_single_step_dense_layer_equivalence():
    start = time.perf_counter()
    report = check_proposition1(seed=0, instances=50, tol=1e-12)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 5.0
    assert _report(
        1,
        f"dense-layer single step == concat/ReLU path "
        f"(max dev {report['max_deviation']:.2e}, {elapsed:.2f}s)",
        ok,
    )


def _naive_conv_relu_layer(x, kernels, dilation, scale, bias):
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


def test_criterion_2_plain_stack_equals_conv_relu_pipeline():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        model = model_from_config(
            {
                "model": "mlcsc",
                "input_shape": [int(rng.integers(5, 10)), 1],
                "depth": 2,
                "width": int(rng.integers(1, 4)),
                "seed": trial,
                "bias": float(-rng.uniform(0.0, 0.3)),
            }
        )
        x = rng.standard_normal(model.layers[0].kernel_bank.input_shape)
        codes = mlcsc_forward(model, x)
        current = x
        for layer, code in zip(model.layers, codes):
            want = _naive_conv_relu_layer(
                current,
                layer.kernel_bank.taps,
                layer.kernel_bank.dilation,
                layer.effective_scale(),
                layer.bias,
            )
            worst = max(worst, float(np.max(np.abs(code - want))))
            current = code
    assert _report(
        2, f"plain stack == independent conv/ReLU pipeline (max dev {worst:.2e})",
        worst < 1e-12,
    )


def test_criterion_3_augmented_spectrum_and_lipschitz_shift():
    spectrum = check_lemma3(seed=0, instances=30, tol=1e-8)
    shift = check_lipschitz_shift(seed=0, tol=1e-8)
    ok = spectrum["pass"] and shift["pass"]
    assert _report(
        3,
        f"augmented-Gram spectrum (dev {spectrum['max_deviation']:.2e}) and "
        f"L_dense = L_plain + 2 (dev {shift['max_deviation']:.2e})",
        ok,
    )


def test_criterion_4_identity_correction_objective_gap():
    report = check_theorem1(seed=0, instances=100, tol=1e-10)
    assert _report(
        4,
        f"identity-corrected objective strictly better, gap closed form "
        f"(max dev {report['max_deviation']:.2e})",
        report["pass"],
    )


def test_criterion_5_dilation_kills_coherence():
    report = check_dilation_coherence(seed=0, instances=100)
    losses = int(report["max_deviation"])
    assert _report(
        5,
        f"2x2-on-4x4 coherence: mu(s=2) = 0 exactly, mu(s=1) > mu(s=2) in "
        f"{100 - losses}/100 cases",
        report["pass"],
    )


def test_criterion_6_solver_correctness():
    rng = np.random.default_rng(0)
    ok = True
    worst_identity = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 12))
        x = rng.standard_normal(n) * 3.0
        beta = float(rng.uniform(0.05, 1.0))
        problem = LassoProblem(np.eye(n), x, beta)
        result = ista(problem, PursuitConfig(iterations=500, tol=1e-14))
        worst_identity = max(
            worst_identity, float(np.max(np.abs(result.code - soft_threshold(x, beta))))
        )
        ok = ok and result.iterations_run <= 500
    ok = ok and worst_identity < 1e-8

    for _ in range(100):
        n, m = int(rng.integers(3, 10)), int(rng.integers(2, 12))
        problem = LassoProblem(
            rng.standard_normal((n, m)), rng.standard_normal(n),
            float(rng.uniform(0.01, 0.5)),
        )
        trace = np.asarray(
            ista(problem, PursuitConfig(iterations=30, tol=1e-14)).objective_trace
        )
        ok = ok and bool(np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, trace[:-1])))

    worst_gap = 0.0
    for _ in range(10):
        # controlled conditioning so the objective is strongly convex and
        # both solvers converge to the unique optimum inside the budget
        n = int(rng.integers(6, 12))
        m = n - int(rng.integers(1, 4))
        u, _, vt = np.linalg.svd(rng.standard_normal((n, m)), full_matrices=False)
        mat = u @ np.diag(np.linspace(1.0, 2.0, m)) @ vt
        problem = LassoProblem(mat, rng.standard_normal(n), 0.1)
        one = PursuitConfig(iterations=1)
        ok = ok and np.array_equal(ista(problem, one).code, fista(problem, one).code)
        deep = PursuitConfig(iterations=500, tol=1e-300)
        worst_gap = max(
            worst_gap,
            abs(
                ista(problem, deep).objective_trace[-1]
                - fista(problem, deep).objective_trace[-1]
            ),
        )
    ok = ok and worst_gap < 1e-6
    assert _report(
        6,
        f"solver identities (identity-dict dev {worst_identity:.2e}, "
        f"accelerated-vs-plain gap {worst_gap:.2e})",
        ok,
    )


def test_criterion_7_layered_thresholding_error_bound():
    start = time.perf_counter()
    report = check_lemma2(seed=0, instances=20)
    elapsed = time.perf_counter() - start
    ok = report["pass"] and elapsed < 30.0
    assert _report(
        7,
        f"planted-instance error <= bound on 20 instances "
        f"(worst margin {report['max_deviation']:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_8_unfolding_improves_pursuit_objective():
    rows, details = unfold_sweep(unfoldings=(0, 1, 2), solver="ista", seed=0)
    means = {u: details[u].mean(axis=0) for u in (0, 1, 2)}
    strict = 0
    total = 0
    for lo, hi in ((1, 0), (2, 1)):
        for layer in range(means[0].size):
            total += 1
            if means[lo][layer] < means[hi][layer]:
                strict += 1
    ordered = (
        rows[2]["mean_objective"] <= rows[1]["mean_objective"]
        <= rows[0]["mean_objective"]
    )
    ok = ordered and strict >= 0.95 * total
    assert _report(
        8,
        f"per-layer mean objective decreases with unfolding "
        f"({strict}/{total} strict, overall means "
        f"{rows[0]['mean_objective']:.4f} -> {rows[1]['mean_objective']:.4f} "
        f"-> {rows[2]['mean_objective']:.4f})",
        ok,
    )


def test_criterion_9_reconstruction_experiment_qualitative_split():
    start = time.perf_counter()
    records = reconstruction_experiment()
    elapsed = time.perf_counter() - start
    n = len(records)
    tail = records[-max(1, n // 4):]
    msd_zero_tail = all(r.unsuccess_count_msd == 0.0 for r in tail)
    ml_positive_tail = all(r.unsuccess_count_ml > 0.0 for r in tail)
    objective_ordered = all(r.objective_msd <= r.objective_ml for r in records)
    ok = msd_zero_tail and ml_positive_tail and objective_ordered and elapsed <= 600.0
    assert _report(
        9,
        f"dense model reconstructs fully (tail unsuccess 0), plain model "
        f"plateaus positive (tail mean "
        f"{np.mean([r.unsuccess_count_ml for r in tail]):.1f}), dense objective "
        f"<= plain at every iteration, {elapsed:.0f}s",
        ok,
    )


def test_criterion_10_residual_pair_structure():
    rng = np.random.default_rng(0)
    length, channels = 8, 2
    layers = []
    for i in range(2):
        bank = random_dictionary(
            (length, channels), (3,), channels, padding=SAME, seed=i
        )
        layers.append(LayerParams(bank, bias=np.zeros(channels), scale=0.5))
    z = rng.standard_normal((length, channels))

    plain_codes = rescsc_forward(ResCSCModel(layers, variant="plain"), z)
    ml_codes = mlcsc_forward(MLCSCModel(layers), z)
    plain_ok = all(np.array_equal(a, b) for a, b in zip(plain_codes, ml_codes))

    d1 = to_matrix(layers[0].kernel_bank)
    d2 = to_matrix(layers[1].kernel_bank)
    resnet = rescsc_forward(ResCSCModel(layers, variant="resnet", operator=SOFT), z)
    shortcut = z.ravel() + 0.5 * d2.T @ (0.5 * d1.T @ z.ravel())
    resnet_dev = float(np.max(np.abs(resnet[1].ravel() - shortcut)))

    full = rescsc_forward(ResCSCModel(layers, variant="full", operator=NONNEG), z)
    g1 = np.maximum(0.5 * d1.T @ z.ravel(), 0.0)
    pre = 0.5 * d2.T @ g1 + z.ravel() - 0.5 * d2.T @ (d2 @ z.ravel())
    full_dev = float(np.max(np.abs(full[1].ravel() - np.maximum(pre, 0.0))))

    ok = plain_ok and resnet_dev < 1e-12 and full_dev < 1e-12
    assert _report(
        10,
        f"residual variants: plain bitwise, shortcut dev {resnet_dev:.2e}, "
        f"full-update dev {full_dev:.2e}",
        ok,
    )
