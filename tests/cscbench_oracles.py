"""Reference operators that only the tests use.

Not named ``oracles``: ``perfbench/oracles.py`` holds that module name, and
one pytest session over both test directories would import only one of them.
"""

import numpy as np

from cscbench.numeric import _check_threshold


def soft_threshold_nonneg(z, b):
    """S_b^+(z) = max(z - b, 0), i.e. ReLU(z - b)."""
    z = np.asarray(z, dtype=float)
    b = _check_threshold(b, z.shape)
    return np.maximum(z - b, 0.0)
