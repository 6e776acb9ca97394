"""Lasso solvers: closed-form identities, monotonicity, dense oracles."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cscbench import dictionary as dct
from cscbench import pursuit
from cscbench.dictionary import (
    SAME,
    ConvDictionary,
    MSDDictionary,
    random_dictionary,
    to_matrix,
)
from cscbench.errors import DivergenceError, InvalidThresholdError, ShapeError
from cscbench.models import NONNEG, SOFT, LayerParams, MLCSCModel, mlcsc_forward
from cscbench.numeric import soft_threshold
from cscbench.pursuit import (
    LassoProblem,
    PursuitConfig,
    export_trace_csv,
    fista,
    gram_operator,
    ista,
    lasso_objective,
    iterates_at,
    lipschitz_bound,
    lipschitz_constant,
    proximal_gradient,
)
from cscbench_oracles import last_iterate, soft_threshold_nonneg, textbook_fista
from strategies import conv_dictionaries


def random_problem(rng, nonneg=False, n=None, m=None, beta=None):
    n = n or int(rng.integers(3, 10))
    m = m or int(rng.integers(2, 12))
    mat = rng.standard_normal((n, m))
    signal = rng.standard_normal(n)
    beta = beta if beta is not None else float(rng.uniform(0.01, 0.5))
    return LassoProblem(mat, signal, beta)


# -- constants and objective ---------------------------------------------------


def test_lipschitz_constant_matches_dense_oracle(rng):
    for _ in range(5):
        mat = rng.standard_normal((int(rng.integers(3, 9)), int(rng.integers(2, 9))))
        want = 2.0 * float(np.linalg.eigvalsh(mat.T @ mat)[-1])
        assert lipschitz_constant(mat) == pytest.approx(want, abs=1e-8 * want)


def test_lipschitz_constant_identity():
    assert lipschitz_constant(np.eye(6)) == pytest.approx(2.0, abs=1e-10)


def test_lipschitz_constant_matrix_free_agrees_with_dense():
    conv = random_dictionary((8, 1), (3,), 2, padding=SAME, seed=1)
    assert lipschitz_constant(conv) == pytest.approx(
        lipschitz_constant(to_matrix(conv)), abs=1e-8
    )
    msd = MSDDictionary(conv)
    assert lipschitz_constant(msd) == pytest.approx(
        lipschitz_constant(to_matrix(msd)), abs=1e-8
    )


def exact_lmax(dictionary):
    mat = to_matrix(dictionary)
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    return float(np.linalg.eigvalsh(gram)[-1])


@given(conv_dictionaries())
def test_lipschitz_bound_is_certified(conv):
    got = lipschitz_bound(conv)
    assert got >= 2.0 * exact_lmax(conv) * (1.0 - 1e-12)
    if conv.padding == SAME:
        shift = lipschitz_bound(MSDDictionary(conv)) - got
        assert shift == pytest.approx(2.0, abs=1e-12 * max(1.0, got))


# (input_shape, width, dilation, seed) of the layers the experiments run.
# Tightness is claimed for these 1D shapes only: on small 2D grids the
# zero-padded border is a large share of the circulant grid, and the bound
# can be more than twice the exact value (8x8 input, 3x3 kernel, dilation 3).
WORKLOAD_LAYERS = [
    ((100, 1), 16, 1, 0),  # fig4 layer 1
    ((100, 16), 16, 2, 1),  # fig4 plain layer 2
    ((100, 17), 16, 2, 1),  # fig4 dense layer 2
    ((100, 17), 16, 2, 0),  # lasso_solve's layer-2 shape
    ((100, 1), 4, 1, 0),  # README pursue family
    ((100, 1), 4, 1, 1),
    ((100, 1), 4, 1, 2),
    ((100, 1), 4, 1, 3),
    ((50, 1), 8, 1, 0),  # unfold-sweep layers
    ((50, 9), 8, 2, 1),
]


@pytest.mark.parametrize("input_shape, width, dilation, seed", WORKLOAD_LAYERS)
def test_lipschitz_bound_is_tight_on_workload_layers(input_shape, width, dilation, seed):
    conv = random_dictionary(
        input_shape, (3,), width, dilation=dilation, padding=SAME, seed=seed
    )
    lam = exact_lmax(conv)
    assert lipschitz_bound(conv) / (2.0 * lam) <= 1.01
    assert lipschitz_bound(MSDDictionary(conv)) / (2.0 * (1.0 + lam)) <= 1.01


def test_lipschitz_bound_is_exact_for_dense_matrices(rng):
    mat = rng.standard_normal((6, 9))
    assert lipschitz_bound(mat) == lipschitz_constant(mat)


def test_gram_operator_is_dtd(rng):
    mat = rng.standard_normal((5, 7))
    v = rng.standard_normal(7)
    assert np.allclose(gram_operator(mat)(v), mat.T @ mat @ v, atol=1e-13)


def test_lasso_objective_hand_value():
    problem = LassoProblem(np.eye(2), np.array([1.0, -2.0]), 0.5)
    code = np.array([0.5, 0.0])
    # 0.5*(0.25 + 4) + 0.5*0.5
    assert lasso_objective(problem, code) == pytest.approx(2.375, abs=1e-15)


def test_lasso_objective_vector_beta():
    problem = LassoProblem(np.eye(2), np.zeros(2), np.array([1.0, 2.0]))
    assert lasso_objective(problem, np.array([1.0, -1.0])) == pytest.approx(
        1.0 + 1.0 + 2.0, abs=1e-15
    )


def test_problem_validation(rng):
    with pytest.raises(ShapeError):
        LassoProblem(np.eye(3), np.zeros(4), 0.1)
    with pytest.raises(InvalidThresholdError):
        LassoProblem(np.eye(3), np.zeros(3), -0.1)
    with pytest.raises(ShapeError):
        LassoProblem(np.eye(3), np.zeros(3), np.ones(4))
    for bad in (np.nan, np.inf, np.array([0.1, np.nan, 0.1])):
        with pytest.raises(InvalidThresholdError, match="finite"):
            LassoProblem(np.eye(3), np.zeros(3), bad)


def test_lasso_objective_batch_rows_are_per_sample_objectives(rng):
    conv = random_dictionary((9, 2), (3,), 3, dilation=2, padding=SAME, seed=4)
    msd = MSDDictionary(conv)
    signals = rng.standard_normal((3, msd.rows))
    codes = rng.standard_normal((3, msd.cols))
    got = lasso_objective(LassoProblem(msd, signals, 0.2), codes)
    assert got.shape == (3,)
    for b in range(3):
        want = lasso_objective(LassoProblem(msd, signals[b], 0.2), codes[b])
        assert got[b] == pytest.approx(want, rel=1e-13)
    with pytest.raises(ShapeError):
        lasso_objective(LassoProblem(msd, signals, 0.2), codes[0])


# -- ISTA ----------------------------------------------------------------------


def test_ista_identity_dictionary_converges_to_soft_threshold(rng):
    # with D = I the Lasso minimizer is S_beta(X) in closed form
    for _ in range(10):
        n = int(rng.integers(2, 12))
        x = rng.standard_normal(n) * 3.0
        beta = float(rng.uniform(0.05, 1.0))
        problem = LassoProblem(np.eye(n), x, beta)
        result = ista(problem, PursuitConfig(iterations=500, tol=1e-14))
        assert result.iterations_run <= 500
        assert np.max(np.abs(result.code - soft_threshold(x, beta))) < 1e-8


def test_ista_identity_nonneg_converges_to_nonneg_threshold(rng):
    x = rng.standard_normal(8) * 2.0
    problem = LassoProblem(np.eye(8), x, 0.3)
    result = ista(problem, PursuitConfig(iterations=500, nonneg=True, tol=1e-14))
    assert np.max(np.abs(result.code - soft_threshold_nonneg(x, 0.3))) < 1e-8


def test_ista_objective_trace_nonincreasing(rng):
    for _ in range(100):
        problem = random_problem(rng, nonneg=bool(rng.integers(2)))
        result = ista(problem, PursuitConfig(iterations=30, tol=1e-14))
        trace = np.asarray(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, trace[:-1]))


def test_ista_trace_starts_at_init_objective(rng):
    problem = random_problem(rng)
    init = rng.standard_normal(problem.code_length)
    result = ista(problem, PursuitConfig(iterations=3), init=init)
    assert result.objective_trace[0] == pytest.approx(
        lasso_objective(problem, init), abs=1e-13
    )
    assert len(result.objective_trace) == result.iterations_run + 1
    assert len(result.delta_trace) == result.iterations_run


def test_ista_one_step_closed_form(rng):
    # a single iteration from zero is S_{beta/L}((1/L) D^T X)
    problem = random_problem(rng)
    result = ista(problem, PursuitConfig(iterations=1))
    mat = problem.dictionary
    want = soft_threshold(
        mat.T @ problem.signal / result.lipschitz, problem.beta / result.lipschitz
    )
    assert np.allclose(result.code, want, atol=1e-12)


def test_ista_early_stop_on_tolerance():
    problem = LassoProblem(np.eye(3), np.array([5.0, -1.0, 0.0]), 0.1)
    result = ista(problem, PursuitConfig(iterations=500, tol=1e-12))
    assert result.iterations_run < 500
    assert result.delta_trace[-1] < 1e-12


def test_ista_lipschitz_override(rng):
    problem = random_problem(rng)
    result = ista(problem, PursuitConfig(iterations=5, lipschitz_override=50.0))
    assert result.lipschitz == 50.0
    with pytest.raises(ShapeError):
        ista(problem, PursuitConfig(iterations=5, lipschitz_override=-1.0))


def test_ista_init_shape_validation(rng):
    problem = random_problem(rng)
    with pytest.raises(ShapeError):
        ista(problem, PursuitConfig(iterations=1), init=np.zeros(problem.code_length + 1))


def test_pursuit_config_validation():
    with pytest.raises(ShapeError):
        PursuitConfig(iterations=0)
    with pytest.raises(ShapeError):
        PursuitConfig(tol=0.0)
    for bad in (float("nan"), float("inf")):  # NaN passed `tol <= 0`
        with pytest.raises(ShapeError):
            PursuitConfig(tol=bad)
        with pytest.raises(ShapeError):
            PursuitConfig(lipschitz_override=bad)


# -- FISTA ----------------------------------------------------------------------


def test_fista_equals_ista_at_one_iteration(rng):
    for _ in range(10):
        problem = random_problem(rng)
        config = PursuitConfig(iterations=1)
        assert np.array_equal(ista(problem, config).code, fista(problem, config).code)


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_fista_matches_textbook_fista(rng, kind):
    if kind == "dense":
        dictionary = rng.standard_normal((8, 14))
    else:
        dictionary = random_dictionary((12, 2), (3,), 3, dilation=2, padding=SAME, seed=3)
    mat = to_matrix(dictionary)
    signal = rng.standard_normal(mat.shape[0])
    for steps in (1, 2, 3, 10, 40):
        result = fista(LassoProblem(dictionary, signal, 0.05), PursuitConfig(steps, tol=1e-300))
        assert result.iterations_run == steps
        want = textbook_fista(mat, signal, 0.05, result.lipschitz, steps)
        assert np.max(np.abs(result.code - want)) <= 1e-12


def test_fista_not_worse_than_ista_at_same_budget(rng):
    for _ in range(20):
        problem = random_problem(rng)
        config = PursuitConfig(iterations=40, tol=1e-300)
        f_ista = ista(problem, config).objective_trace[-1]
        f_fista = fista(problem, config).objective_trace[-1]
        assert f_fista <= f_ista + 1e-9


def test_fista_converges_to_identity_solution(rng):
    x = rng.standard_normal(6) * 2.0
    problem = LassoProblem(np.eye(6), x, 0.2)
    result = fista(problem, PursuitConfig(iterations=500, tol=1e-14))
    assert np.max(np.abs(result.code - soft_threshold(x, 0.2))) < 1e-8


# -- the shared proximal-gradient loop -------------------------------------------


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_proximal_gradient_batch_rows_equal_per_sample_solvers(
    seed, batch, momentum, nonneg, msd
):
    rng = np.random.default_rng(seed)
    conv = random_dictionary(
        (int(rng.integers(4, 10)), int(rng.integers(1, 3))),
        (3,),
        int(rng.integers(1, 4)),
        dilation=int(rng.integers(1, 4)),
        padding=SAME,
        seed=seed,
    )
    dictionary = MSDDictionary(conv) if msd else conv
    signals = rng.standard_normal((batch, conv.rows))
    beta = float(rng.uniform(0.01, 0.5))
    iterations = int(rng.integers(1, 15))
    lipschitz = lipschitz_bound(dictionary)
    codes = last_iterate(
        proximal_gradient(
            dictionary, signals, beta / lipschitz, 1.0 / lipschitz, momentum, nonneg
        ),
        iterations,
    )
    solver = fista if momentum else ista
    config = PursuitConfig(iterations=iterations, tol=1e-300, nonneg=nonneg)
    for b in range(batch):
        want = solver(LassoProblem(dictionary, signals[b], beta), config).code
        assert np.max(np.abs(codes[b] - want)) <= 1e-12


def test_proximal_gradient_takes_negative_nonneg_thresholds(rng):
    mat = rng.standard_normal((5, 7))
    signal = rng.standard_normal(5)
    code = next(proximal_gradient(mat, signal, -0.3, 0.1, nonneg=True))
    assert np.allclose(code, np.maximum(0.1 * mat.T @ signal + 0.3, 0.0), atol=1e-15)
    with pytest.raises(InvalidThresholdError):
        next(proximal_gradient(mat, signal, -0.3, 0.1, nonneg=False))


def test_huber_runs_hand_out_no_residuals(rng):
    with pytest.raises(ShapeError, match="Huber"):
        next(proximal_gradient(np.eye(3), rng.standard_normal(3), 0.1, 0.5, huber=0.2,
                               residuals=True))


def test_proximal_gradient_raises_on_non_finite_iterates(rng):
    mat = rng.standard_normal((5, 7))
    signal = rng.standard_normal(5)
    # positive D and X overflow every entry of the step to -inf, which
    # max(v - threshold, 0) alone would turn into a zero code
    for mat, signal in ((mat, signal), (np.abs(mat), np.abs(signal))):
        for nonneg, momentum in itertools.product((False, True), (False, True)):
            iterates = proximal_gradient(mat, signal, 0.0, 1e300, momentum, nonneg)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
                last_iterate(iterates, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("momentum", [False, True])
def test_nonneg_run_with_non_finite_signal_raises(rng, bad, momentum):
    # nonnegative taps map a -inf entry to -inf only, which max(v - threshold, 0)
    # would turn into zeros: the signal itself is checked
    bank = random_dictionary((9, 1), (3,), 2, padding=SAME, seed=1)
    conv = ConvDictionary(np.abs(bank.taps), bank.input_shape, SAME)
    for dictionary in (conv, MSDDictionary(conv), to_matrix(conv)):
        signals = rng.standard_normal((3, conv.rows))
        signals[1, 4] = bad
        iterates = proximal_gradient(dictionary, signals, 0.1, 0.1, momentum, nonneg=True)
        with pytest.raises(DivergenceError):
            last_iterate(iterates, 5)


@pytest.mark.parametrize("nonneg", [False, True])
def test_yielded_iterates_are_never_written_after_yield(rng, nonneg):
    conv = random_dictionary((9, 2), (3,), 3, dilation=2, padding=SAME, seed=4)
    for dictionary in (conv, MSDDictionary(conv), to_matrix(conv)):
        signals = rng.standard_normal((4, conv.rows))
        init = rng.uniform(0.0, 0.1, (4, dictionary.shape[1]))
        init_copy = init.copy()
        step = 1.0 / lipschitz_bound(dictionary)
        kept, copies = [], []
        iterates = proximal_gradient(
            dictionary, signals, 0.05 * step, step, momentum=True, nonneg=nonneg, init=init
        )
        for code in itertools.islice(iterates, 10):
            kept.append(code)
            copies.append(code.copy())
        assert len(kept) == 10
        for code, copy in zip(kept, copies):
            assert np.array_equal(code, copy)
        assert np.array_equal(init, init_copy)


@pytest.mark.parametrize("steps", [0, -1])
def test_last_iterate_rejects_fewer_than_one_step(rng, steps):
    iterates = proximal_gradient(np.eye(3), rng.standard_normal(3), 0.1, 0.5)
    with pytest.raises(ShapeError):
        last_iterate(iterates, steps)


def test_iterates_at_rejects_a_count_below_one(rng):
    iterates = proximal_gradient(np.eye(3), rng.standard_normal(3), 0.1, 0.5)
    with pytest.raises(ShapeError, match="at least one step"):
        iterates_at(iterates, [2, 0, 1])


def test_solvers_reject_a_batched_problem(rng):
    for batch in (2, 1):  # a batch of one is a batch too
        problem = LassoProblem(np.eye(3), rng.standard_normal((batch, 3)), 0.1)
        for solver in (ista, fista):
            with pytest.raises(ShapeError, match="one signal"):
                solver(problem, PursuitConfig(iterations=2))


# -- objective traces read from the loop's residual ---------------------------------


def _trace_problem(kind, beta=0.05):
    conv = random_dictionary((12, 2), (3,), 3, dilation=2, padding=SAME, seed=3)
    dictionary = {"conv": conv, "msd": MSDDictionary(conv),
                  "dense": np.random.default_rng(5).standard_normal((8, 14))}[kind]
    signal = np.random.default_rng(6).standard_normal(dictionary.shape[0])
    return LassoProblem(dictionary, signal, beta)


def _loop_codes(problem, nonneg, init, momentum, steps):
    """The codes of ``steps`` steps of the loop without residuals, the path
    the layer steps run and ``test_fista_matches_textbook_fista`` pins."""
    lipschitz = lipschitz_bound(problem.dictionary)
    iterates = proximal_gradient(
        problem.dictionary, problem.signal, problem.beta / lipschitz, 1.0 / lipschitz,
        momentum, nonneg, init,
    )
    return list(itertools.islice(iterates, steps))


TRACE_CASES = list(itertools.product(["conv", "msd", "dense"], [False, True], [False, True]))


@pytest.mark.parametrize("kind, from_init, nonneg", TRACE_CASES)
@pytest.mark.parametrize("solver", [ista, fista], ids=["ista", "fista"])
def test_trace_entries_are_the_objectives_of_the_loop_codes(kind, from_init, nonneg, solver):
    problem = _trace_problem(kind)
    init = (np.random.default_rng(7).uniform(0.0, 0.1, problem.code_length)
            if from_init else None)
    config = PursuitConfig(iterations=300, tol=1e-300, nonneg=nonneg)
    result = solver(problem, config, init)
    assert result.iterations_run == 300
    start = np.zeros(problem.code_length) if init is None else init
    codes = [start] + _loop_codes(problem, nonneg, init, solver is fista, 300)
    assert np.array_equal(result.code, codes[-1])  # the same bits, momentum or not
    want = [lasso_objective(problem, code) for code in codes]
    assert result.objective_trace[0] == want[0] and result.objective_trace[-1] == want[-1]
    if solver is ista:  # r = D G - X is the step's own array: -(X - D G) exactly
        assert result.objective_trace == want
    else:  # recovered from the momentum point's residual
        err = np.abs(np.subtract(result.objective_trace, want)) / np.abs(want)
        assert err.max() <= 1e-13
    for steps in (1, 2, 3, 17):
        short = solver(problem, PursuitConfig(steps, tol=1e-300, nonneg=nonneg), init)
        assert np.array_equal(short.code, codes[steps])


@pytest.mark.parametrize("momentum", [False, True])
@pytest.mark.parametrize("from_init", [False, True])
def test_loop_residuals_are_the_residuals_at_the_previous_code(rng, momentum, from_init):
    problem = _trace_problem("msd")
    lipschitz = lipschitz_bound(problem.dictionary)
    init = rng.uniform(0.0, 0.1, problem.code_length) if from_init else None
    init_copy = None if init is None else init.copy()
    pairs = list(itertools.islice(proximal_gradient(
        problem.dictionary, problem.signal, problem.beta / lipschitz, 1.0 / lipschitz,
        momentum, False, init, residuals=True,
    ), 40))
    copies = [(code.copy(), residual.copy()) for code, residual in pairs]
    codes = [np.zeros(problem.code_length) if init is None else init]
    codes += [code for code, _ in pairs]
    for (code, residual), (code_copy, residual_copy), previous in zip(pairs, copies, codes):
        assert np.array_equal(code, code_copy)  # no yielded array is written to
        assert np.array_equal(residual, residual_copy)
        want = dct.apply(problem.dictionary, previous) - problem.signal
        assert np.max(np.abs(residual - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(pairs[-1][0], _loop_codes(problem, False, init, momentum, 40)[-1])
    if init is not None:
        assert np.array_equal(init, init_copy)


@pytest.mark.parametrize("solver", [ista, fista], ids=["ista", "fista"])
@pytest.mark.parametrize("kind", ["conv", "msd"])
def test_a_solve_applies_the_dictionary_once_a_step(monkeypatch, solver, kind):
    problem = _trace_problem(kind)
    calls = [0]
    apply = dct.apply

    def counted(*args):
        calls[0] += 1
        return apply(*args)

    monkeypatch.setattr(dct, "apply", counted)
    for steps in (1, 2, 25):
        calls[0] = 0
        result = solver(problem, PursuitConfig(iterations=steps, tol=1e-300))
        assert result.iterations_run == steps
        # the first step from zero needs no apply, each later one takes one,
        # and the objective of the last code takes one more
        assert calls[0] == steps
        calls[0] = 0
        solver(problem, PursuitConfig(iterations=steps, tol=1e-300),
               init=np.zeros(problem.code_length))
        assert calls[0] == steps + 1  # an init's residual is formed by the first step


def test_soft_threshold_is_checked_once_at_the_first_step(rng, monkeypatch):
    problem = _trace_problem("conv")
    checks = []
    check = pursuit._check_threshold

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(pursuit, "_check_threshold", counted)
    iterates = proximal_gradient(problem.dictionary, problem.signal, 0.01, 0.1)
    last_iterate(iterates, 10)
    assert len(checks) == 1
    bad = proximal_gradient(problem.dictionary, problem.signal, np.full(5, 0.01), 0.1)
    with pytest.raises(ShapeError, match="does not broadcast"):
        next(bad)


# -- layered thresholding: the plain model's forward pass ---------------------------


def unit_step_model(banks, biases, operator=NONNEG):
    """A plain model whose layers take one unit step from zero, bias -t."""
    layers = [LayerParams(d, bias=np.full(d.width, b), scale=1.0) for d, b in zip(banks, biases)]
    return MLCSCModel(layers, operator)


def test_layered_thresholding_single_layer_is_relu_shift(rng):
    bank = random_dictionary((6, 2), (2,), 3, dilation=2, seed=1)
    x = rng.standard_normal((6, 2))
    (code,) = mlcsc_forward(unit_step_model([bank], [-0.3]), x)
    want = np.maximum(to_matrix(bank).T @ x.ravel() - 0.3, 0.0)
    assert np.allclose(code.ravel(), want, atol=1e-13)


def test_layered_thresholding_identity_chain_passthrough(rng):
    identity = ConvDictionary(np.eye(3).reshape(3, 1, 3), (4, 3))  # one tap per channel
    x = rng.standard_normal((4, 3))
    codes = mlcsc_forward(unit_step_model([identity, identity], [0.0, 0.0], SOFT), x)
    assert np.array_equal(codes[0], x)
    assert np.array_equal(codes[1], x)


def test_layered_thresholding_matches_dense_oracle(rng):
    d1 = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=2)
    d2 = random_dictionary((6, 2), (2,), 3, dilation=2, seed=3)
    x = rng.standard_normal((6, 1))
    codes = mlcsc_forward(unit_step_model([d1, d2], [-0.2, -0.1], SOFT), x)
    g1 = soft_threshold(to_matrix(d1).T @ x.ravel(), 0.2)
    g2 = soft_threshold(to_matrix(d2).T @ g1, 0.1)
    assert np.allclose(codes[0].ravel(), g1, atol=1e-13)
    assert np.allclose(codes[1].ravel(), g2, atol=1e-13)


@pytest.mark.parametrize("operator", [SOFT, NONNEG])
def test_layered_thresholding_checks_thresholds(rng, operator):
    bank = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=4)
    x = rng.standard_normal((6, 1))
    with pytest.raises(ShapeError):  # one bias per kernel
        LayerParams(bank, bias=np.full(3, -0.1), scale=1.0)
    if operator == SOFT:  # a positive bias is a negative soft threshold
        with pytest.raises(InvalidThresholdError):
            mlcsc_forward(unit_step_model([bank], [0.1], operator), x)
    else:  # ReLU(D.T x + bias) takes any bias
        (code,) = mlcsc_forward(unit_step_model([bank], [0.1], operator), x)
        want = np.maximum(to_matrix(bank).T @ x.ravel() + 0.1, 0.0)
        assert np.allclose(code.ravel(), want, atol=1e-13)


def test_layered_thresholding_rejects_mismatched_chain_and_operator(rng):
    d1 = random_dictionary((6, 1), (3,), 2, padding=SAME, seed=5)
    d2 = random_dictionary((9, 2), (3,), 2, padding=SAME, seed=6)  # d1's codes are (6, 2)
    with pytest.raises(ShapeError, match="does not match dictionary input"):
        mlcsc_forward(unit_step_model([d1, d2], [0.0, 0.0]), rng.standard_normal((6, 1)))
    with pytest.raises(ShapeError, match="unknown thresholding operator"):
        unit_step_model([d1], [0.0], "hard")


# -- trace export -----------------------------------------------------------------


def test_export_trace_csv(tmp_path, rng):
    problem = random_problem(rng)
    result = ista(problem, PursuitConfig(iterations=5, tol=1e-300))
    path = tmp_path / "trace.csv"
    export_trace_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "objective", "delta_inf"]
    assert len(rows) == len(result.objective_trace) + 1
    assert float(rows[1][1]) == result.objective_trace[0]
    assert float(rows[-1][2]) == result.delta_trace[-1]
