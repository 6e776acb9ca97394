"""Convolutional sparse coding workbench.

Dilated convolutional dictionaries, Lasso pursuit (ISTA / FISTA), plain
(layered thresholding) / residual / dense forward-propagation families, and
executable checks of the theory connecting them.
"""

from .dictionary import (
    ConvDictionary,
    ConvKernel,
    MSDDictionary,
    mutual_coherence,
    stripe_sparsity,
    to_matrix,
)
from .models import (
    DenseLayer,
    LayerParams,
    MLCSCModel,
    MSDCSCModel,
    ResCSCModel,
    mlcsc_forward,
    msdcsc_forward,
    msdcsc_layer_forward,
    rescsc_forward,
)
from .numeric import soft_threshold, spectral_lmax, symmetric_eigs
from .pursuit import (
    LassoProblem,
    PursuitConfig,
    PursuitResult,
    fista,
    ista,
    lasso_objective,
    lipschitz_bound,
    lipschitz_constant,
)

__all__ = [
    "ConvDictionary",
    "ConvKernel",
    "MSDDictionary",
    "LassoProblem",
    "PursuitConfig",
    "PursuitResult",
    "LayerParams",
    "DenseLayer",
    "MLCSCModel",
    "MSDCSCModel",
    "ResCSCModel",
    "soft_threshold",
    "spectral_lmax",
    "symmetric_eigs",
    "mutual_coherence",
    "stripe_sparsity",
    "to_matrix",
    "ista",
    "fista",
    "lasso_objective",
    "lipschitz_bound",
    "lipschitz_constant",
    "mlcsc_forward",
    "rescsc_forward",
    "msdcsc_forward",
    "msdcsc_layer_forward",
]

__version__ = "0.1.0"
