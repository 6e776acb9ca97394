"""Lasso pursuit: one proximal-gradient loop and the ISTA/FISTA solvers.

``proximal_gradient`` is the only ISTA/FISTA iteration in the package.
``ista``/``fista``, the per-sample reference solvers, run it on one signal;
every batched pursuit runs it through one entry, ``models._layer_step`` on a
layer: the forward layers (layered thresholding is the plain model's
forward pass) and the training, probe and sweep pursuits of
:mod:`cscbench.learning`. Steps are 1/L with L = 2 * lambda_max(D.T D), the
constant stated alongside the update rule (the tight one is
lambda_max(D.T D)); ``lipschitz_override`` or a layer's ``scale`` sets
another, as the logging probe's 1/lambda_bar on a conv bank does.
``lipschitz_bound`` gives every solver's L: certified, never below the
true constant, as the ISTA/FISTA rates need (Beck & Teboulle 2009); a
closed form from the taps' DFT for conv dictionaries, +2 for [I | D],
exact for dense ones.
``lipschitz_constant`` is the exact value from the Gram matrix of the
dense D that ``dictionary.to_matrix`` builds, an oracle for
verification-scale dictionaries only.

Each step forms the residual D G - X at the point it steps from and, asked
for ``residuals``, hands it out beside the code: ``ista``/``fista`` read
every objective-trace entry from it, so n steps from zero apply D n times,
once for each step after the first and once for the last code's objective.
ISTA's entries are the bits of ``lasso_objective``; FISTA's residual is
recovered from its momentum point and its entries agree to rounding. The
layer steps ask for them only where the unfolding sweep reads objectives.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import dictionary as dct
from .errors import DivergenceError, InvalidThresholdError, ShapeError
from .numeric import _check_threshold, _shrink, symmetric_eigs


@dataclass
class LassoProblem:
    """min 0.5||X - D G||^2 + sum beta_j |G_j| for a signal (rows,) or batch (B, rows)."""

    dictionary: object  # ConvDictionary | MSDDictionary | dense ndarray
    signal: np.ndarray
    beta: float | np.ndarray

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=float)
        rows, cols = self.dictionary.shape
        if self.signal.ndim not in (1, 2) or self.signal.shape[-1] != rows:
            raise ShapeError(
                f"signal of shape {self.signal.shape} does not match "
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
        if not np.all(np.isfinite(beta)):
            raise InvalidThresholdError("beta must be finite")
        if np.any(beta < 0):
            raise InvalidThresholdError("beta must be nonnegative")
        self.beta = float(beta) if beta.ndim == 0 else beta

    @property
    def code_length(self):
        return self.dictionary.shape[1]


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
        if not 0 < self.tol < np.inf:  # written so that NaN fails it
            raise ShapeError("tol must be finite and positive")
        if not (self.lipschitz_override is None or 0 < self.lipschitz_override < np.inf):
            raise ShapeError("lipschitz_override must be finite and positive")


@dataclass
class PursuitResult:
    code: np.ndarray
    objective_trace: list[float]
    iterations_run: int
    lipschitz: float
    delta_trace: list[float] = field(default_factory=list)


def gram_operator(dictionary):
    return lambda v: dct.apply_adjoint(dictionary, dct.apply(dictionary, v))


def lipschitz_constant(dictionary):
    """Exact 2 * lambda_max(D.T D), from the smaller of D D.T and D.T D.

    D comes from ``dictionary.to_matrix`` under its size guard; the LAPACK
    eigensolver's size limit keeps this to verification scale.
    """
    mat = dct.to_matrix(dictionary)
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
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
    """The objective at ``code``; one value per row for a batched problem."""
    code = np.asarray(code, dtype=float)
    if code.shape != problem.signal.shape[:-1] + (problem.code_length,):
        raise ShapeError(
            f"code of shape {code.shape} does not match dictionary columns "
            f"{problem.code_length}"
        )
    objective = _objective(problem.beta, dct.apply(problem.dictionary, code) - problem.signal, code)
    return float(objective) if code.ndim == 1 else objective


def _objective(beta, residual, code):
    """0.5||r||^2 + sum beta_j |code_j| from the residual r = D code - X."""
    penalty = (beta * np.abs(code)).sum(axis=-1)
    return 0.5 * np.vecdot(residual, residual) + penalty


def proximal_gradient(
    dictionary, signal, threshold, step, momentum=False, nonneg=False, init=None,
    residuals=False, huber=None,
):
    """The package's one ISTA/FISTA iteration (Beck & Teboulle 2009).

    Yields the code after each step G <- prox(G - step D.T (D G - X)) without
    end; callers stop on their own test. Signals and codes are (rows,)/(cols,) or
    batches (B, rows)/(B, cols). ``threshold`` (beta * step for a Lasso
    problem) broadcasts against a code; the prox is max(v - threshold, 0)
    with ``nonneg``, which takes negative thresholds (network biases), else
    the soft threshold, whose threshold is checked once, at the first step.
    ``init=None`` starts from zero; an ``init`` has the shape of the codes. A
    non-finite signal, gradient step or iterate raises ``DivergenceError``.
    No yielded array is written to afterwards.

    With ``residuals``, each step yields the pair (code, r): r = D G - X at
    the code before that step (-X from zero), which the step has formed on
    its way. ISTA's r is the step's own array. FISTA's step forms the
    residual at its momentum point y = G + m (G - G_prev) instead, and r is
    recovered as (r(y) + m r(G_prev)) / (1 + m), D being linear: equal to
    D G - X up to rounding, whose error shrinks by m / (1 + m) < 1/2 a step.
    The codes are the same bits either way; without ``residuals`` the step
    scales its residual in place and keeps nothing.

    With ``huber`` = h, the smooth part is sum_j huber_h((X - D G)_j) in
    place of 0.5||X - D G||^2: 1-smooth too, with gradient
    -D.T min(X - D G, h), so each step clips its residual at -h before the
    adjoint (min(X, h) on the first). No residuals are handed out with it.
    """
    signal = np.asarray(signal, dtype=float)
    if not np.all(np.isfinite(signal)):
        raise DivergenceError("pursuit signal has non-finite values")
    if huber is not None and residuals:
        raise ShapeError("a Huber-loss run hands out no residuals")
    code = point = None if init is None else np.asarray(init, dtype=float)
    t_k, buffer, scaled, shrink_by, weight = 1.0, None, None, None, 0.0
    at_code = -signal if residuals else None  # r at ``code``; D 0 - X from zero
    while True:
        # v = point + D.T (step * (X - D point)), scaled on the rows side (the
        # smaller, for an overcomplete D) and updated in place in the
        # operators' fresh outputs: on batches, memory traffic sets the speed
        if point is None:
            v = dct.apply_adjoint(
                dictionary, step * (signal if huber is None else np.minimum(signal, huber))
            )
        else:
            residual = dct.apply(dictionary, point)
            residual -= signal
            if residuals:  # keep D point - X, scale a reused copy
                scaled = np.multiply(residual, -step, out=scaled)
                v = dct.apply_adjoint(dictionary, scaled)
                if weight:  # point = code + weight (code - previous code)
                    residual += weight * at_code
                    residual /= 1.0 + weight
                at_code = residual
            else:
                if huber is not None:
                    np.maximum(residual, -huber, out=residual)
                residual *= -step
                v = dct.apply_adjoint(dictionary, residual)
            v += point
        if nonneg:
            v -= threshold
            low = v.min(initial=0.0)  # a -inf or NaN, before max(., 0) maps -inf to 0
            new = np.maximum(v, 0.0, out=v)
            # low <= 0 <= the max, so the sum is finite iff both are
            finite = np.isfinite(low + new.max(initial=0.0))
        else:
            if shrink_by is None:
                shrink_by = _check_threshold(threshold, v.shape)
            new = _shrink(v, shrink_by)
            finite = np.isfinite(new).all()
        if not finite:
            raise DivergenceError("pursuit produced non-finite values")
        yield (new, at_code) if residuals else new
        point = new
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
            if code is not None:  # None only from zero, where t_k - 1 = 0
                weight = (t_k - 1.0) / t_next
                point = buffer = np.subtract(new, code, out=buffer)  # never yielded
                point *= weight
                point += new
            t_k = t_next
        code = new


def iterates_at(iterates, steps):
    """The codes after each of ``steps`` (counts >= 1, in any order, repeats
    allowed) steps of one ``proximal_gradient`` run, in the order given."""
    wanted = set(steps)
    if min(wanted) < 1:
        raise ShapeError(f"a pursuit takes at least one step (unfolding >= 0), got {min(wanted)}")
    at = {n: code for n, code in zip(range(1, max(wanted) + 1), iterates) if n in wanted}
    return [at[n] for n in steps]


def _solve(problem, config, init, momentum):
    """``proximal_gradient`` on one signal (rows,), recording the traces; stops
    once the inf-norm delta < tol. Each step's objective is read from the
    residual the loop has formed; only the last code's takes an ``apply``."""
    if problem.signal.ndim != 1:
        raise ShapeError(
            f"the per-sample solvers take one signal, got a batch of shape "
            f"{problem.signal.shape}"
        )
    start = np.zeros(problem.code_length) if init is None else np.asarray(init, float)
    if start.shape != (problem.code_length,):
        raise ShapeError(
            f"init of shape {start.shape} does not match dictionary columns "
            f"{problem.code_length}"
        )
    if config.lipschitz_override is None:
        lipschitz = lipschitz_bound(problem.dictionary)
    else:
        lipschitz = float(config.lipschitz_override)
    iterates = proximal_gradient(
        problem.dictionary, problem.signal, np.asarray(problem.beta) / lipschitz,
        1.0 / lipschitz, momentum, config.nonneg, None if init is None else start,
        residuals=True,
    )
    trace, deltas = [], []
    code = start
    for new, residual in itertools.islice(iterates, config.iterations):
        trace.append(float(_objective(problem.beta, residual, code)))
        deltas.append(float(np.abs(new - code).max()) if new.size else 0.0)
        code = new
        if deltas[-1] < config.tol:
            break
    trace.append(lasso_objective(problem, code))
    return PursuitResult(
        code=code,
        objective_trace=trace,
        iterations_run=len(deltas),
        lipschitz=lipschitz,
        delta_trace=deltas,
    )


def ista(problem, config, init=None):
    """Proximal-gradient updates; stops early once the inf-norm delta < tol."""
    return _solve(problem, config, init, momentum=False)


def fista(problem, config, init=None):
    """Momentum-accelerated variant; identical to ISTA when iterations == 1."""
    return _solve(problem, config, init, momentum=True)


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
