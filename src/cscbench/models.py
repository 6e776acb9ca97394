"""Forward-propagation families: plain stacks, residual pairs, dense stacks.

Bias convention, centralized here: layers carry an *additive* bias (the
network convention), and a thresholding step with threshold t is the same
layer with bias -t. Pursuit-mode constructors derive bias = -beta / L so
the two conventions never conflict.

Signals and codes flow through the models as arrays of shape
(*spatial, channels), and the layers pursue on them. A layer's type says
which dictionary it pursues on: a ``LayerParams`` on its bank F, a
``DenseLayer`` on [I | F]. A dense layer's code is its channel stack
(*spatial, c + w), its input's c channels and its w conv channels, which
is the next layer's input as it stands.

``_layer_step`` is the one entry to batched pursuit: the three forwards,
training's pursuits, the logging probe and the unfolding sweep of
:mod:`cscbench.learning` all call it on a layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pursuit
from .dictionary import SAME, ConvDictionary, MSDDictionary, array_operator, random_dictionary
from .errors import ShapeError

SOFT = "soft"
NONNEG = "nonneg"


@dataclass
class LayerParams:
    """One plain layer: kernel bank F_i, per-kernel additive bias, step scale c_i.

    ``scale=None`` means 1 / L of the layer's dictionary, resolved lazily.
    ``DenseLayer`` is the dense (MSD) kind. ``LayerParams(...,
    passthrough_bias=b)`` builds one, as perfbench's oracle tests do.
    """

    kernel_bank: ConvDictionary
    bias: np.ndarray
    scale: float | None = None

    def __new__(cls, *args, **kwargs):
        return super().__new__(DenseLayer if "passthrough_bias" in kwargs else cls)

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=float)
        if self.bias.shape != (self.kernel_bank.width,):
            raise ShapeError(
                f"bias of shape {self.bias.shape} does not match kernel count "
                f"{self.kernel_bank.width}"
            )
        if self.scale is not None and self.scale <= 0:
            raise ShapeError("scale must be positive")

    def dictionary(self):
        """The layer's dictionary, its kernel bank F."""
        return self.kernel_bank

    def thresholds(self):
        """The prox thresholds, one per channel of the layer's code: -bias."""
        return -self.bias

    def lipschitz(self):
        return pursuit.lipschitz_bound(self.dictionary())

    def effective_scale(self):
        return self.scale if self.scale is not None else 1.0 / self.lipschitz()

    @classmethod
    def pursuit_mode(cls, kernel_bank, beta):
        """Layer whose forward pass is one ISTA step: c = 1/L, bias = -beta/L."""
        layer = cls(kernel_bank, bias=np.zeros(kernel_bank.width))
        lipschitz = layer.lipschitz()
        layer.scale = 1.0 / lipschitz
        layer.bias = np.full(kernel_bank.width, -beta / lipschitz)
        return layer


@dataclass
class DenseLayer(LayerParams):
    """One dense (MSD) layer: dictionary [I | F] over a same-padded bank F.
    ``passthrough_bias`` is the additive bias on the identity channels (0 in
    network mode, -beta/L in pursuit mode)."""

    passthrough_bias: float = 0.0

    def dictionary(self):
        return MSDDictionary(self.kernel_bank)

    def thresholds(self):
        """-passthrough_bias on each identity channel, then -bias per kernel."""
        return np.concatenate([np.full(self.kernel_bank.channels, -self.passthrough_bias),
                               -self.bias])

    @classmethod
    def pursuit_mode(cls, kernel_bank, beta):
        """One ISTA step on [I | F]: bias = -beta/L on the identity channels too."""
        layer = super().pursuit_mode(kernel_bank, beta)
        layer.passthrough_bias = -beta / layer.lipschitz()
        return layer


def _layer_step(
    layer, x, steps=(1,), momentum=False, nonneg=True, init=None, residuals=False, huber=None
):
    """Every batched pursuit in the package: one run of proximal-gradient
    steps on the signal ``x`` over ``layer.dictionary()``'s array operators
    at step c = ``effective_scale``, with the layer's ``thresholds``, from the
    code array ``init`` or from zero, read off after each of the step counts
    ``steps``; ``huber`` is ``proximal_gradient``'s Huber loss.

    ``x`` is (*spatial, c) or a batch (B, *spatial, c). Returns one code per
    step count: (..., *out, width), or for a dense layer its channel stack
    (..., *spatial, c + w); with ``residuals``, each paired with its residual
    D code - x.
    """
    x = np.asarray(x, dtype=float)
    conv = layer.kernel_bank
    lead = x.ndim - len(conv.input_shape)
    if x.shape[lead:] != conv.input_shape or lead not in (0, 1):
        raise ShapeError(
            f"layer input of shape {x.shape} does not match dictionary input "
            f"{conv.input_shape}"
        )
    threshold = layer.thresholds()  # per channel, the same at every position
    if np.all(threshold == threshold[0]):  # as in pursuit mode: a scalar broadcasts fastest
        threshold = threshold[0]
    operator = array_operator(layer.dictionary())
    iterates = pursuit.proximal_gradient(
        operator, x, threshold, layer.effective_scale(), momentum, nonneg, init, residuals, huber
    )
    if not residuals:
        return pursuit.iterates_at(iterates, steps)
    # step n + 1 hands out the residual at code n; only the deepest code's takes an apply
    last = max(steps)
    wanted = sorted({*steps, *(n + 1 for n in steps if n < last)})
    at = dict(zip(wanted, pursuit.iterates_at(iterates, wanted)))
    deepest = operator.apply(at[last][0]) - x
    return [(at[n][0], at[n + 1][1] if n < last else deepest) for n in steps]


def _one_signal(layer, x):
    """``x`` as one input of ``layer``, for the forwards that take no batch."""
    x, shape = np.asarray(x, dtype=float), layer.kernel_bank.input_shape
    if x.shape != shape:
        raise ShapeError(f"layer input of shape {x.shape} does not match dictionary input {shape}")
    return x


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
        (x,) = _layer_step(layer, _one_signal(layer, x), nonneg=nonneg)
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
        z = _one_signal(first, x)
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


def _dense(layer):
    """``layer``, which must be a ``DenseLayer``."""
    if not isinstance(layer, DenseLayer):
        raise ShapeError(f"a dense model takes DenseLayer layers, got {type(layer).__name__}")
    return layer


@dataclass
class MSDCSCModel:
    """Dense stack of MSD layers; channel count grows by w per layer."""

    layers: list[DenseLayer]
    unfolding: int = 0
    solver: str = "ista"

    def __post_init__(self):
        for layer in self.layers:
            _dense(layer)
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
    return _layer_step(_dense(layer), x, (1 + unfolding,), _momentum(solver))[0]


def _momentum(solver):
    """Whether ``solver``, ista or fista, steps with FISTA's momentum."""
    if solver not in ("ista", "fista"):
        raise ShapeError(f"unknown solver {solver!r}")
    return solver == "fista"


def msdcsc_forward(model, x):
    """The last dense layer's output, (*spatial, c + depth * w): each layer
    keeps its input's channels in its identity block and adds w."""
    for layer in model.layers:
        x = msdcsc_layer_forward(layer, _one_signal(layer, x), model.unfolding, model.solver)
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
    layer_type = DenseLayer if kind == "msdcsc" else LayerParams
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
        layers.append(layer_type(bank, bias=np.full(width, bias_value)))
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
