"""Lasso pursuit: ISTA, FISTA, and single-step layered thresholding.

The gradient step is 1/L with L = 2 * lambda_max(D.T D), the constant
stated alongside the update rule, even though the tight Lipschitz constant
of the smooth term is lambda_max(D.T D); pass ``lipschitz_override`` to use
another constant.

Two functions give L:
  * ``lipschitz_bound`` is the step constant of every solver in the
    package. It is certified: never below the true constant, which is what
    the ISTA/FISTA rates need (Beck & Teboulle 2009). For a conv dictionary
    it is 2 * ``ConvDictionary.lmax_bound``, a closed form from the taps'
    DFT; [I | D] adds exactly 2; a dense matrix gets the exact value.
  * ``lipschitz_constant`` is the exact value, the top eigenvalue of the
    smaller Gram matrix. It assembles that matrix, so it is an oracle for
    verification-scale dictionaries only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import dictionary as dct
from .errors import DivergenceError, InvalidThresholdError, ShapeError
from .numeric import soft_threshold, soft_threshold_nonneg, symmetric_eigs


@dataclass
class LassoProblem:
    """One layer's instance of min 0.5||X - D G||^2 + sum beta_j |G_j|."""

    dictionary: object  # ConvDictionary | MSDDictionary | dense ndarray
    signal: np.ndarray
    beta: float | np.ndarray

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=float)
        rows, cols = dct.operator_shape(self.dictionary)
        if self.signal.shape != (rows,):
            raise ShapeError(
                f"signal of length {self.signal.shape} does not match "
                f"dictionary rows {rows}"
            )
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim not in (0, 1):
            raise ShapeError("beta must be a scalar or a vector")
        if beta.ndim == 1 and beta.shape != (cols,):
            raise ShapeError(
                f"per-entry beta of length {beta.shape[0]} does not match "
                f"dictionary columns {cols}"
            )
        if np.any(beta < 0):
            raise InvalidThresholdError("beta must be nonnegative")
        self.beta = float(beta) if beta.ndim == 0 else beta

    @property
    def code_length(self):
        return dct.operator_shape(self.dictionary)[1]


@dataclass
class PursuitConfig:
    """iterations = 1 + unfolding; iterating more than once is unfolding."""

    iterations: int = 1
    tol: float = 1e-12
    nonneg: bool = False
    lipschitz_override: float | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ShapeError("iterations must be >= 1")
        if self.tol <= 0:
            raise ShapeError("tol must be positive")


@dataclass
class PursuitResult:
    code: np.ndarray
    objective_trace: list[float]
    iterations_run: int
    lipschitz: float
    momentum_trace: list[float] | None = None
    delta_trace: list[float] = field(default_factory=list)


def gram_operator(dictionary):
    return lambda v: dct.apply_adjoint(dictionary, dct.apply(dictionary, v))


def lipschitz_constant(dictionary):
    """Exact 2 * lambda_max(D.T D), from the smaller of D D.T and D.T D.

    D is assembled row by row with ``apply_adjoint``; the Jacobi
    eigensolver limits this to verification-scale dictionaries.
    """
    rows, cols = dct.operator_shape(dictionary)
    mat = np.array([dct.apply_adjoint(dictionary, e) for e in np.eye(rows)])
    gram = mat @ mat.T if rows <= cols else mat.T @ mat
    return 2.0 * float(symmetric_eigs(gram)[-1])


def lipschitz_bound(dictionary):
    """The solvers' step constant: a certified L >= 2 * lambda_max(D.T D).

    Closed form for conv and [I | D] dictionaries, exact for dense ones.
    """
    if isinstance(dictionary, dct.MSDDictionary):
        return 2.0 * (1.0 + dictionary.conv.lmax_bound)
    if isinstance(dictionary, dct.ConvDictionary):
        return 2.0 * dictionary.lmax_bound
    return lipschitz_constant(dictionary)


def lasso_objective(problem, code):
    code = np.asarray(code, dtype=float)
    if code.shape != (problem.code_length,):
        raise ShapeError(
            f"code of shape {code.shape} does not match dictionary columns "
            f"{problem.code_length}"
        )
    residual = problem.signal - dct.apply(problem.dictionary, code)
    return float(0.5 * residual @ residual + np.sum(problem.beta * np.abs(code)))


def _resolve_lipschitz(problem, config):
    if config.lipschitz_override is not None:
        if config.lipschitz_override <= 0:
            raise ShapeError("lipschitz_override must be positive")
        return float(config.lipschitz_override)
    return lipschitz_bound(problem.dictionary)


def _step(problem, code, lipschitz, threshold, op):
    residual = dct.apply(problem.dictionary, code) - problem.signal
    grad = dct.apply_adjoint(problem.dictionary, residual)
    new = op(code - grad / lipschitz, threshold)
    if not np.all(np.isfinite(new)):
        raise DivergenceError("pursuit produced non-finite values")
    return new


def ista(problem, config, init=None):
    """Proximal-gradient updates; stops early once the inf-norm delta < tol."""
    if init is None:
        init = np.zeros(problem.code_length)
    code = np.asarray(init, dtype=float).copy()
    if code.shape != (problem.code_length,):
        raise ShapeError(
            f"init of shape {code.shape} does not match dictionary columns "
            f"{problem.code_length}"
        )
    lipschitz = _resolve_lipschitz(problem, config)
    threshold = np.asarray(problem.beta) / lipschitz
    op = soft_threshold_nonneg if config.nonneg else soft_threshold
    trace = [lasso_objective(problem, code)]
    deltas = []
    iterations_run = 0
    for _ in range(config.iterations):
        new = _step(problem, code, lipschitz, threshold, op)
        delta = float(np.max(np.abs(new - code))) if new.size else 0.0
        code = new
        iterations_run += 1
        trace.append(lasso_objective(problem, code))
        deltas.append(delta)
        if delta < config.tol:
            break
    return PursuitResult(
        code=code,
        objective_trace=trace,
        iterations_run=iterations_run,
        lipschitz=lipschitz,
        delta_trace=deltas,
    )


def fista(problem, config, init=None):
    """Momentum-accelerated variant; identical to ISTA when iterations == 1."""
    if init is None:
        init = np.zeros(problem.code_length)
    start = np.asarray(init, dtype=float).copy()
    if start.shape != (problem.code_length,):
        raise ShapeError(
            f"init of shape {start.shape} does not match dictionary columns "
            f"{problem.code_length}"
        )
    lipschitz = _resolve_lipschitz(problem, config)
    threshold = np.asarray(problem.beta) / lipschitz
    op = soft_threshold_nonneg if config.nonneg else soft_threshold
    trace = [lasso_objective(problem, start)]
    deltas = []
    t_values = [1.0]

    code = _step(problem, start, lipschitz, threshold, op)
    deltas.append(float(np.max(np.abs(code - start))) if code.size else 0.0)
    trace.append(lasso_objective(problem, code))
    prev = code.copy()  # first momentum step sees a zero difference
    iterations_run = 1
    t_k = 1.0
    for _ in range(config.iterations - 1):
        if deltas[-1] < config.tol:
            break
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        z = code + ((t_k - 1.0) / t_next) * (code - prev)
        new = _step(problem, z, lipschitz, threshold, op)
        deltas.append(float(np.max(np.abs(new - code))) if new.size else 0.0)
        prev = code
        code = new
        t_k = t_next
        t_values.append(t_next)
        iterations_run += 1
        trace.append(lasso_objective(problem, code))
    return PursuitResult(
        code=code,
        objective_trace=trace,
        iterations_run=iterations_run,
        lipschitz=lipschitz,
        momentum_trace=t_values,
        delta_trace=deltas,
    )


def layered_thresholding(layers, signal, operator="soft"):
    """One adjoint-apply + threshold per layer; returns all layer codes.

    ``layers`` is a list of (dictionary, threshold) pairs; ``operator``
    selects the signed ("soft") or nonnegative ("nonneg") operator.
    """
    if operator not in ("soft", "nonneg"):
        raise ShapeError(f"unknown thresholding operator {operator!r}")
    op = soft_threshold_nonneg if operator == "nonneg" else soft_threshold
    current = np.asarray(signal, dtype=float)
    codes = []
    for i, (dictionary, threshold) in enumerate(layers):
        rows = dct.operator_shape(dictionary)[0]
        if current.shape != (rows,):
            raise ShapeError(
                f"layer {i}: signal of length {current.shape} does not match "
                f"dictionary rows {rows}"
            )
        current = op(dct.apply_adjoint(dictionary, current), threshold)
        codes.append(current)
    return codes


def export_trace_csv(result, path):
    """Objective trace as CSV with columns (iter, objective, delta_inf)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "delta_inf"])
        writer.writerow([0, f"{result.objective_trace[0]:.17g}", f"{0.0:.17g}"])
        for i, (obj, delta) in enumerate(
            zip(result.objective_trace[1:], result.delta_trace), start=1
        ):
            writer.writerow([i, f"{obj:.17g}", f"{delta:.17g}"])
