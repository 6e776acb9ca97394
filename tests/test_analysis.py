"""Theory verifiers against hand-computed instances and dense oracles."""

import json
from dataclasses import replace

import numpy as np
import pytest

from cscbench.analysis import (
    check_dilation_coherence,
    check_lemma2,
    check_lemma3,
    check_lipschitz_shift,
    check_proposition1,
    check_theorem1,
    forced_unsuccess_instance,
    lemma1_threshold,
    lemma2_bound,
    lemma3_check,
    planted_lemma2_instance,
    proposition1_check,
    reconstruction_report,
    run_verification_suite,
    suite_to_json,
    theorem1_compare,
)
from cscbench.dictionary import (
    SAME,
    mutual_coherence,
    random_dictionary,
    stripe_sparsity,
    to_matrix,
)
from cscbench.errors import BoundInapplicableError, ShapeError
from cscbench import models
from cscbench.models import DenseLayer
from cscbench.pursuit import LassoProblem, lasso_objective


# -- uniqueness threshold ---------------------------------------------------------


def test_lemma1_threshold_orthonormal_is_infinite():
    assert lemma1_threshold(mutual_coherence(np.eye(4))) == float("inf")


def test_lemma1_threshold_hand_coherence():
    # columns at 45 degrees: mu = 1/sqrt(2), threshold = (1 + sqrt(2)) / 2
    mat = np.array([[1.0, 1.0 / np.sqrt(2.0)], [0.0, 1.0 / np.sqrt(2.0)]])
    assert lemma1_threshold(mutual_coherence(mat)) == pytest.approx(
        0.5 * (1.0 + np.sqrt(2.0)), abs=1e-12
    )


# -- layered-thresholding error bound ----------------------------------------------


def test_lemma2_bound_zero_coherence_is_power_of_four():
    # with mu = 0 every factor is exactly 4
    assert lemma2_bound([0.0, 0.0], [3.0, 5.0], 0.1) == pytest.approx(
        0.01 * 16.0, abs=1e-15
    )


def test_lemma2_bound_hand_value():
    # eps0^2 * 4/(1 - (2*2-1)*0.1) * 4/(1 - (2*3-1)*0.05)
    want = 0.04 * (4.0 / 0.7) * (4.0 / 0.75)
    assert lemma2_bound([0.1, 0.05], [2.0, 3.0], 0.2) == pytest.approx(want, rel=1e-12)


def test_lemma2_bound_inapplicable_reports_layer():
    with pytest.raises(BoundInapplicableError) as err:
        lemma2_bound([0.0, 0.5], [2.0, 2.0], 0.1)
    assert err.value.layer == 1


def test_lemma2_bound_length_mismatch():
    with pytest.raises(ShapeError):
        lemma2_bound([0.1], [2.0, 3.0], 0.1)


# -- identity-augmented spectrum ----------------------------------------------------


def test_lemma3_check_hand_case():
    # A = [1 0]: A A^T = [1], so eig(B) = {0, 0, 2}
    check = lemma3_check(np.array([[1.0, 0.0]]))
    assert np.allclose(check.b_eigs, [0.0, 0.0, 2.0], atol=1e-12)
    assert check.zero_count_expected == 2
    assert check.max_abs_deviation < 1e-12


def test_lemma3_check_rectangular_against_dense_oracle(rng):
    for n, m in [(3, 5), (5, 3), (4, 4), (1, 7)]:
        a = rng.standard_normal((n, m))
        check = lemma3_check(a)
        b = np.block([[np.eye(n), a], [a.T, a.T @ a]])
        assert np.allclose(check.b_eigs, np.linalg.eigvalsh(b), atol=1e-9)
        want = np.sort(np.concatenate([np.zeros(m), np.linalg.eigvalsh(a @ a.T) + 1]))
        assert np.max(np.abs(check.b_eigs - want)) < 1e-9


def test_lemma3_check_rejects_degenerate_input():
    with pytest.raises(ShapeError):
        lemma3_check(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        lemma3_check(np.ones(3))


# -- per-dimension reconstruction success -------------------------------------------


def test_reconstruction_report_hand_mask():
    problem = LassoProblem(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.25)
    code = np.array([1.4, 2.5, 3.1])  # deviations 0.4, 0.5, 0.1 vs 2*beta = 0.5
    report = reconstruction_report(problem, code)
    assert np.array_equal(report.unsuccess_mask, [False, False, False])
    report = reconstruction_report(
        LassoProblem(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.1), code
    )
    assert np.array_equal(report.unsuccess_mask, [True, True, False])
    assert report.unsuccess_count == 2


def test_reconstruction_report_rejects_vector_beta():
    problem = LassoProblem(np.eye(2), np.zeros(2), np.array([0.1, 0.2]))
    with pytest.raises(ShapeError):
        reconstruction_report(problem, np.array([1.0, 1.0]))


# -- identity-corrected objective comparison -----------------------------------------


def test_theorem1_gap_identity(rng):
    # f_msd - f_ml = sum over failing dims of (-0.5 delta^2 + beta |delta|)
    for _ in range(20):
        problem, gamma = forced_unsuccess_instance(rng)
        report = reconstruction_report(problem, gamma)
        eta, f_ml, f_msd = theorem1_compare(problem, gamma)
        assert report.unsuccess_count > 0
        assert f_msd < f_ml
        delta = report.xi - report.target
        gap = np.sum(
            (-0.5 * delta**2 + problem.beta * np.abs(delta))[report.unsuccess_mask]
        )
        assert f_msd - f_ml == pytest.approx(gap, abs=1e-10)
        # the corrected code reproduces the plain code in its conv slot
        assert np.array_equal(eta[-gamma.size :], gamma)


def test_theorem1_equality_without_failures(rng):
    mat = rng.standard_normal((4, 6))
    gamma = rng.standard_normal(6)
    problem = LassoProblem(mat, mat @ gamma, 0.3)
    eta, f_ml, f_msd = theorem1_compare(problem, gamma)
    assert f_msd == pytest.approx(f_ml, abs=1e-12)
    assert np.array_equal(eta[:4], np.zeros(4))


def test_theorem1_msd_objective_is_lifted_objective(rng):
    problem, gamma = forced_unsuccess_instance(rng)
    eta, _, f_msd = theorem1_compare(problem, gamma)
    lifted = np.hstack([np.eye(problem.dictionary.shape[0]), problem.dictionary])
    assert f_msd == pytest.approx(
        lasso_objective(LassoProblem(lifted, problem.signal, problem.beta), eta),
        abs=1e-12,
    )


# -- one-step path equivalence --------------------------------------------------------


def test_proposition1_small_instance(rng):
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=3)
    layer = DenseLayer(bank, bias=np.array([-0.2, -0.05]), scale=1.0)
    x = np.abs(rng.standard_normal((6, 1)))
    assert proposition1_check(layer, x) < 1e-12


@pytest.mark.parametrize("bias", ["bias", "passthrough_bias"])
def test_proposition1_checks_the_models_dense_layer(monkeypatch, bias):
    # the check runs models._layer_step: a shifted dense threshold fails it
    layer_step = models._layer_step

    def shifted(layer, *args, **kwargs):
        return layer_step(replace(layer, **{bias: getattr(layer, bias) - 1e-3}), *args, **kwargs)

    monkeypatch.setattr(models, "_layer_step", shifted)
    assert not check_proposition1(seed=0, instances=5)["pass"]


def test_proposition1_shape_mismatch():
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=3)
    layer = DenseLayer(bank, bias=np.zeros(2), scale=1.0)
    with pytest.raises(ShapeError):
        proposition1_check(layer, np.zeros((5, 1)))


# -- planted two-layer instances -------------------------------------------------------


def test_planted_instance_zero_coherence_and_exact_noise():
    d1, d2, gamma1, gamma2, signal = planted_lemma2_instance(seed=7, eps0=0.25)
    assert mutual_coherence(d1) < 1e-14
    assert mutual_coherence(d2) < 1e-14
    clean = d1.apply(gamma1)
    assert np.linalg.norm(signal - clean) == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(d2.apply(gamma2), gamma1, atol=1e-12)
    # both dictionaries have orthonormal columns
    for d in (d1, d2):
        mat = to_matrix(d)
        assert np.allclose(mat.T @ mat, np.eye(mat.shape[1]), atol=1e-12)


def test_planted_instance_stripe_sparsity_within_bound():
    d1, d2, gamma1, gamma2, _ = planted_lemma2_instance(seed=3)
    for code, d in ((gamma1, d1), (gamma2, d2)):
        gamma = stripe_sparsity(code, d)
        assert lemma2_bound([mutual_coherence(d)], [gamma], 0.1) > 0.0


# -- seeded battery ----------------------------------------------------------------------


def test_verification_suite_all_pass():
    reports = run_verification_suite(seed=0)
    names = [r["name"] for r in reports]
    assert names == [
        "lemma3_spectrum",
        "lipschitz_shift",
        "theorem1_objective_gap",
        "proposition1_equivalence",
        "lemma2_error_bound",
        "dilation_coherence",
    ]
    for report in reports:
        assert report["pass"], report


@pytest.mark.parametrize("seed", [3, 4, 10, 12])
def test_verification_suite_passes_where_power_iteration_stalled(seed):
    # check_lipschitz_shift's constants once came from a power iteration
    # that did not converge on these seeds' dictionaries
    for report in run_verification_suite(seed=seed):
        assert report["pass"], report


def test_individual_checks_pass_on_fresh_seed():
    assert check_lemma3(seed=5)["pass"]
    assert check_lipschitz_shift(seed=5)["pass"]
    assert check_theorem1(seed=5)["pass"]
    assert check_proposition1(seed=5)["pass"]
    assert check_lemma2(seed=5)["pass"]
    assert check_dilation_coherence(seed=5)["pass"]


@pytest.mark.parametrize("seed", range(20))
def test_lemma3_spectrum_deviation_near_roundoff(seed):
    assert check_lemma3(seed=seed)["max_deviation"] <= 1e-12


def test_suite_to_json_parses():
    reports = run_verification_suite(seed=1)
    doc = json.loads(suite_to_json(reports))
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 6
