"""The benchmark's oracles agree with cscbench on small cases and reject
perturbed results.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

import oracles
from cscbench import dictionary as dct
from cscbench import models, pursuit
from cscbench.models import LayerParams

# (input_shape, kernel_spatial, width, dilation, padding)
SHAPES = [
    ((9, 1), (3,), 2, 1, "valid"),
    ((9, 2), (3,), 3, 2, "valid"),
    ((10, 1), (2,), 2, 3, "same"),
    ((8, 3), (3,), 2, 2, "same"),
    ((5, 6, 1), (2, 2), 2, 2, "valid"),
    ((5, 4, 2), (3, 2), 2, 1, "same"),
    ((6, 6, 1), (2, 3), 3, 2, "same"),
]
IDS = [f"{len(s[0]) - 1}d-{s[4]}-dil{s[3]}-c{s[0][-1]}" for s in SHAPES]


def _bank(shape, seed=0):
    input_shape, kernel, width, dilation, padding = shape
    return dct.random_dictionary(input_shape, kernel, width, dilation=dilation,
                                 padding=padding, seed=seed)


def _same_operator(bank, mat, rng):
    code = rng.standard_normal(bank.cols)
    signal = rng.standard_normal(bank.rows)
    return (np.allclose(mat @ code, bank.apply(code), rtol=0, atol=1e-12)
            and np.allclose(mat.T @ signal, bank.apply_adjoint(signal), rtol=0, atol=1e-12))


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_conv_matrix_matches_program_operator(shape):
    bank = _bank(shape)
    mat = oracles.dictionary_matrix(bank)
    assert mat.shape == bank.shape
    assert _same_operator(bank, mat, np.random.default_rng(1))
    np.testing.assert_array_equal(mat, dct.to_matrix(bank))


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_conv_matrix_rejects_perturbed_taps(shape):
    bank = _bank(shape)
    taps = bank.kernel_array()
    taps[(1,) + (0,) * (taps.ndim - 1)] += 1e-6
    perturbed = dct.ConvDictionary([dct.ConvKernel(t, bank.dilation) for t in taps],
                                   bank.input_shape, bank.padding)
    assert not _same_operator(perturbed, oracles.dictionary_matrix(bank),
                              np.random.default_rng(1))


def test_msd_matrix_is_identity_next_to_conv_block():
    bank = _bank(SHAPES[3])
    mat = oracles.dictionary_matrix(dct.MSDDictionary(bank))
    assert _same_operator(dct.MSDDictionary(bank), mat, np.random.default_rng(2))
    np.testing.assert_array_equal(mat[:, :bank.rows], np.eye(bank.rows))


def test_lambda_max_matches_dense_spectrum():
    mat = np.random.default_rng(0).standard_normal((7, 12))
    assert oracles.lambda_max(mat) == pytest.approx(np.linalg.norm(mat, 2) ** 2, rel=1e-12)
    assert oracles.lambda_max(mat.T) == pytest.approx(np.linalg.norm(mat, 2) ** 2, rel=1e-12)


@pytest.mark.parametrize("nonneg", [False, True])
def test_lasso_optimum_identity_closed_form(nonneg):
    x = np.random.default_rng(3).standard_normal(12)
    codes, upper, lower = oracles.lasso_optimum(np.eye(12), x, 0.4, nonneg)
    want = np.maximum(x - 0.4, 0) if nonneg else np.sign(x) * np.maximum(np.abs(x) - 0.4, 0)
    np.testing.assert_allclose(codes, want, atol=1e-12)
    assert upper - lower <= 1e-12


@pytest.mark.parametrize("msd", [False, True])
@pytest.mark.parametrize("shape", [s for s in SHAPES if s[4] == "same"] + SHAPES[:2],
                         ids=[i for s, i in zip(SHAPES, IDS) if s[4] == "same"] + IDS[:2])
def test_lasso_optimum_matches_long_fista(shape, msd):
    bank = _bank(shape, seed=3)
    if msd and bank.padding != "same":
        pytest.skip("MSD dictionaries need same padding")
    operator = dct.MSDDictionary(bank) if msd else bank
    signal = np.random.default_rng(4).standard_normal(operator.rows)
    mat = oracles.dictionary_matrix(operator)
    for nonneg in (False, True):
        codes, upper, lower = oracles.lasso_optimum(mat, signal, 0.2, nonneg)
        problem = pursuit.LassoProblem(operator, signal, 0.2)
        config = pursuit.PursuitConfig(iterations=20_000, tol=1e-14, nonneg=nonneg,
                                       lipschitz_override=2 * oracles.lambda_max(mat))
        result = pursuit.fista(problem, config)
        assert upper - lower <= 1e-9 * max(1.0, upper)
        assert result.objective_trace[-1] >= lower - 1e-12
        assert result.objective_trace[-1] == pytest.approx(upper, rel=1e-9, abs=1e-12)


def test_lasso_optimum_large_path_matches_exact_path():
    # 300 rows takes the L-BFGS-B path; its point must be as good as the
    # exact least-distance solution restricted to the same problem
    bank = dct.random_dictionary((100, 3), (3,), 2, dilation=2, padding="same", seed=5)
    mat = oracles.dictionary_matrix(dct.MSDDictionary(bank))
    signal = np.random.default_rng(6).standard_normal(mat.shape[0])
    codes, upper, lower = oracles.lasso_optimum(mat, signal, 0.3, nonneg=True)
    exact = oracles._ldp_solve(mat, signal, 0.3, nonneg=True)
    assert upper - lower <= 1e-9 * upper
    np.testing.assert_allclose(codes, exact, atol=1e-7)


def test_lasso_optimum_rejects_perturbed_results():
    bank = _bank(SHAPES[2], seed=7)
    mat = oracles.dictionary_matrix(bank)
    signal = np.random.default_rng(8).standard_normal(mat.shape[0])
    codes, upper, lower = oracles.lasso_optimum(mat, signal, 0.1, nonneg=False)
    # a claimed objective below the certificate is impossible
    assert upper - 1e-6 < lower
    # any perturbed code is strictly worse than the certified optimum
    rng = np.random.default_rng(9)
    for _ in range(5):
        moved = codes + 1e-4 * rng.standard_normal(codes.size)
        value = oracles.lasso_value(mat, signal[:, None], 0.1, moved[:, None])[0]
        assert value > lower + 1e-10


@pytest.mark.parametrize("solver", ["ista", "fista"])
@pytest.mark.parametrize("shape", [SHAPES[1], SHAPES[5]], ids=[IDS[1], IDS[5]])
def test_rate_bounds_hold_for_program_solvers(shape, solver):
    bank = _bank(shape, seed=10)
    signal = np.random.default_rng(11).standard_normal(bank.rows)
    mat = oracles.dictionary_matrix(bank)
    lipschitz = 2 * oracles.lambda_max(mat)
    codes, _, lower = oracles.lasso_optimum(mat, signal, 0.1, nonneg=False)
    run = pursuit.ista if solver == "ista" else pursuit.fista
    bound = oracles.ista_rate_bound if solver == "ista" else oracles.fista_rate_bound
    result = run(pursuit.LassoProblem(bank, signal, 0.1),
                 pursuit.PursuitConfig(iterations=60, lipschitz_override=lipschitz))
    gaps = np.asarray(result.objective_trace[1:]) - lower
    ks = np.arange(1, gaps.size + 1)
    limits = bound(lipschitz, codes @ codes, ks)
    assert np.all(gaps <= limits)
    # a trace pushed above the bound at one step is rejected
    gaps[9] += 2 * limits[9]
    assert not np.all(gaps <= limits)


@pytest.mark.parametrize("shape", [((12, 1), (3,), 2, 2, "same"), ((10, 3), (3,), 2, 1, "same"),
                                   ((5, 4, 2), (3, 3), 2, 2, "same")],
                         ids=["1d-dil2", "1d-c3", "2d-dil2"])
def test_nonneg_ista_matches_dense_layer_forward(shape):
    bank = _bank(shape, seed=12)
    mat = oracles.dictionary_matrix(dct.MSDDictionary(bank))
    scale = 1.0 / (2.0 * oracles.lambda_max(mat))
    layer = LayerParams(bank, bias=np.full(bank.width, -0.05 * scale), scale=scale,
                        passthrough_bias=-0.05 * scale)
    thresholds = np.concatenate([np.full(bank.rows, -layer.passthrough_bias),
                                 np.tile(-layer.bias, bank.n_positions)])
    x = np.abs(np.random.default_rng(13).standard_normal(bank.input_shape))
    for unfolding in range(3):
        out = models.msdcsc_layer_forward(layer, x, unfolding, "ista")
        got = np.concatenate([out[..., :bank.channels].ravel(), out[..., bank.channels:].ravel()])
        want = oracles.nonneg_ista(mat, x.ravel(), layer.scale, thresholds, unfolding + 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # one step more or less is a different result
        other = oracles.nonneg_ista(mat, x.ravel(), layer.scale, thresholds, unfolding + 2)
        assert np.max(np.abs(got - other)) > 1e-8
