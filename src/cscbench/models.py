"""Forward-propagation families: plain stacks, residual pairs, dense stacks.

Bias convention, centralized here: layers carry an *additive* bias (the
network convention), and a thresholding step with threshold t is the same
layer with bias -t. Pursuit-mode constructors derive bias = -beta / L so
the two conventions never conflict.

Signals and codes flow through the models as arrays of shape
(*spatial, channels), and the layers pursue on them. A dense layer's code
is its channel stack (*spatial, c + w), its input's c channels and its w
conv channels, which is the next layer's input as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pursuit
from .dictionary import (
    SAME,
    ConvDictionary,
    MSDDictionary,
    apply,
    array_operator,
    random_dictionary,
)
from .errors import ShapeError

SOFT = "soft"
NONNEG = "nonneg"


@dataclass
class LayerParams:
    """One layer: kernel bank F_i, per-kernel additive bias, step scale c_i.

    ``scale=None`` means 1 / L of the layer's dictionary, resolved lazily.
    ``passthrough_bias`` only matters for dense (MSD) layers, where it is
    the additive bias on the identity channels (0 in network mode).
    """

    kernel_bank: ConvDictionary
    bias: np.ndarray
    scale: float | None = None
    passthrough_bias: float = 0.0

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=float)
        if self.bias.shape != (self.kernel_bank.width,):
            raise ShapeError(
                f"bias of shape {self.bias.shape} does not match kernel count "
                f"{self.kernel_bank.width}"
            )
        if self.scale is not None and self.scale <= 0:
            raise ShapeError("scale must be positive")

    def dictionary(self, msd=False):
        """The layer's dictionary: F, or [I | F] for a dense layer."""
        return MSDDictionary(self.kernel_bank) if msd else self.kernel_bank

    def lipschitz(self, msd=False):
        return pursuit.lipschitz_bound(self.dictionary(msd))

    def effective_scale(self, msd=False):
        if self.scale is not None:
            return self.scale
        return 1.0 / self.lipschitz(msd=msd)

    @classmethod
    def pursuit_mode(cls, kernel_bank, beta, msd=False):
        """Layer whose forward pass is one ISTA step: c = 1/L, bias = -beta/L."""
        layer = cls(kernel_bank, bias=np.zeros(kernel_bank.width))
        lipschitz = layer.lipschitz(msd=msd)
        layer.scale = 1.0 / lipschitz
        layer.bias = np.full(kernel_bank.width, -beta / lipschitz)
        layer.passthrough_bias = -beta / lipschitz if msd else 0.0
        return layer


def _layer_step(
    layer, x, msd=False, steps=(1,), momentum=False, nonneg=True, init=None, residuals=False
):
    """Every forward layer: one run of proximal-gradient steps on the signal
    ``x`` over ``layer.dictionary(msd)``'s array operators at step c =
    ``effective_scale``, with thresholds -bias per kernel (-passthrough_bias
    on a dense layer's identity channels), from the code array ``init`` or
    from zero, read off after each of the step counts ``steps``.

    ``x`` is (*spatial, c); only a dense layer also takes a batch
    (B, *spatial, c). Returns one code per step count: (*out, width), or for
    a dense layer its channel stack (..., *spatial, c + w); with
    ``residuals``, each paired with its residual D code - x.
    """
    x = np.asarray(x, dtype=float)
    conv = layer.kernel_bank
    lead = x.ndim - len(conv.input_shape)
    if x.shape[lead:] != conv.input_shape or not 0 <= lead <= msd:
        raise ShapeError(
            f"layer input of shape {x.shape} does not match dictionary input "
            f"{conv.input_shape}"
        )
    threshold = -layer.bias
    if msd:  # one threshold per channel of the stack, the same at every position
        threshold = np.concatenate([np.full(conv.channels, -layer.passthrough_bias), threshold])
    if np.all(threshold == threshold[0]):  # as in pursuit mode: a scalar broadcasts fastest
        threshold = threshold[0]
    operator = array_operator(layer.dictionary(msd))
    iterates = pursuit.proximal_gradient(
        operator, x, threshold, layer.effective_scale(msd), momentum, nonneg, init, residuals
    )
    if not residuals:
        return pursuit.iterates_at(iterates, steps)
    # step n + 1 hands out the residual at code n; only the deepest code's takes an apply
    last = max(steps)
    wanted = sorted({*steps, *(n + 1 for n in steps if n < last)})
    at = dict(zip(wanted, pursuit.iterates_at(iterates, wanted)))
    deepest = apply(operator, at[last][0]) - x
    return [(at[n][0], at[n + 1][1] if n < last else deepest) for n in steps]


def _nonneg(operator):
    """Whether ``operator``, SOFT or NONNEG, is the nonnegative prox."""
    if operator not in (SOFT, NONNEG):
        raise ShapeError(f"unknown thresholding operator {operator!r}")
    return operator == NONNEG


@dataclass
class MLCSCModel:
    """Plain stack: each layer is one thresholded adjoint-apply."""

    layers: list[LayerParams]
    operator: str = NONNEG

    def __post_init__(self):
        _nonneg(self.operator)  # rejects an unknown operator


def mlcsc_forward(model, x):
    """Layered thresholding, one step from zero per layer; with the NONNEG
    operator it equals a conv -> ReLU pipeline."""
    nonneg = _nonneg(model.operator)
    codes = []
    for layer in model.layers:
        (x,) = _layer_step(layer, x, nonneg=nonneg)
        codes.append(x)
    return codes


RESCSC_VARIANTS = ("full", "resnet", "simplified", "plain")


@dataclass
class ResCSCModel:
    """Paired layers: the first of each pair takes a plain step, the second
    starts from the pair's input instead of zero."""

    layers: list[LayerParams]
    variant: str = "full"
    operator: str = NONNEG

    def __post_init__(self):
        if self.variant not in RESCSC_VARIANTS:
            raise ShapeError(f"unknown Res-CSC variant {self.variant!r}")
        _nonneg(self.operator)  # rejects an unknown operator
        if len(self.layers) % 2 != 0:
            raise ShapeError("Res-CSC needs an even number of layers")


def rescsc_forward(model, x):
    """Each pair's second layer is one step v = init - c F^T (F init - signal)
    from the pair's input z or zero: (signal, init) is (x, z) for "full",
    (x + F z, z) for "resnet", (x - F z, 0) for "simplified" and (x, 0) for
    "plain", with x the first layer's code and F the second layer's bank."""
    nonneg = _nonneg(model.operator)
    codes = []
    for first, second in zip(model.layers[0::2], model.layers[1::2]):
        z = np.asarray(x, dtype=float)
        (x,) = _layer_step(first, z, nonneg=nonneg)
        codes.append(x)
        signal, init = x, None
        if model.variant != "plain":
            conv = second.kernel_bank
            if z.shape != (*conv.out_spatial, conv.width) or x.shape != conv.input_shape:
                raise ShapeError(
                    f"residual input of shape {z.shape} does not match the pair's "
                    "second layer; the residual terms require shape-preserving layers"
                )
            if model.variant == "resnet":
                signal = x + conv.apply_array(z)
            elif model.variant == "simplified":
                signal = x - conv.apply_array(z)
            if model.variant != "simplified":
                init = z
        (x,) = _layer_step(second, signal, nonneg=nonneg, init=init)
        codes.append(x)
    return codes


@dataclass
class MSDCSCModel:
    """Dense stack of MSD layers; channel count grows by w per layer."""

    layers: list[LayerParams]
    unfolding: int = 0
    solver: str = "ista"

    def __post_init__(self):
        _momentum(self.solver)  # rejects an unknown solver
        if self.unfolding < 0:
            raise ShapeError("unfolding must be >= 0")


def msdcsc_layer_forward(layer, x, unfolding, solver="ista"):
    """One dense layer: 1 + ``unfolding`` nonnegative proximal-gradient steps
    from zero on [I | F], with step c and per-channel thresholds -bias.

    ``x`` is (*spatial, c) or a batch (B, *spatial, c); the output stacks the
    passthrough and conv channels, (..., *spatial, c + w). With c = 1/L and
    bias = -beta/L the layer is exactly ``ista`` (or ``fista``) on its Lasso
    problem with iterations = 1 + unfolding.
    """
    if layer.kernel_bank.padding != SAME:
        raise ShapeError("dense layers require same-zero padding")
    return _layer_step(layer, x, msd=True, steps=(1 + unfolding,), momentum=_momentum(solver))[0]


def _momentum(solver):
    """Whether ``solver``, ista or fista, steps with FISTA's momentum."""
    if solver not in ("ista", "fista"):
        raise ShapeError(f"unknown solver {solver!r}")
    return solver == "fista"


def msdcsc_forward(model, x):
    """The last dense layer's output, (*spatial, c + depth * w): each layer
    keeps its input's channels in its identity block and adds w."""
    x = np.asarray(x, dtype=float)
    for i, layer in enumerate(model.layers):
        conv = layer.kernel_bank
        if x.shape != conv.input_shape:
            raise ShapeError(
                f"layer {i}: input of shape {x.shape} does not match "
                f"dictionary input {conv.input_shape}"
            )
        x = msdcsc_layer_forward(layer, x, model.unfolding, model.solver)
    return x


# -- configuration / serialization -------------------------------------------


def _dilation_schedule(doc, depth):
    dilations = doc.get("dilations", "cycle")
    if dilations == "cycle":
        return [1 + (i % 3) for i in range(depth)]  # cycles 1, 2, 3
    if len(dilations) != depth:
        raise ShapeError("dilations list must have one entry per layer")
    return [int(s) for s in dilations]


def model_from_config(doc):
    """Build a seeded random model from a JSON-style config dict.

    Recognized keys: model (mlcsc | rescsc | msdcsc), input_shape, depth,
    width, kernel_size, dilations ("cycle" or list), unfolding, solver,
    variant, seed, bias (scalar, applied to every kernel).
    """
    kind = doc.get("model", "msdcsc")
    depth = int(doc["depth"])
    if depth < 1:
        raise ShapeError(f"a model needs at least one layer, got depth {depth}")
    width = int(doc["width"])
    kernel_size = int(doc.get("kernel_size", 3))
    seed = int(doc.get("seed", 0))
    bias_value = float(doc.get("bias", 0.0))
    input_shape = tuple(int(d) for d in doc["input_shape"])
    dilations = _dilation_schedule(doc, depth)

    layers = []
    shape = input_shape
    for i in range(depth):
        if kind == "msdcsc":
            channels = input_shape[-1] + i * width
            shape = input_shape[:-1] + (channels,)
            padding = SAME
        else:
            padding = doc.get("padding", SAME)
        bank = random_dictionary(
            shape,
            (kernel_size,) * (len(input_shape) - 1),
            width,
            dilation=dilations[i],
            padding=padding,
            seed=seed + i,
        )
        layers.append(LayerParams(bank, bias=np.full(width, bias_value)))
        if kind != "msdcsc":
            shape = (*bank.out_spatial, width)

    if kind == "mlcsc":
        return MLCSCModel(layers)
    if kind == "rescsc":
        return ResCSCModel(
            layers,
            variant=doc.get("variant", "full"),
            operator=doc.get("operator", NONNEG),
        )
    if kind == "msdcsc":
        return MSDCSCModel(
            layers,
            unfolding=int(doc.get("unfolding", 0)),
            solver=doc.get("solver", "ista"),
        )
    raise ShapeError(f"unknown model kind {kind!r}")
