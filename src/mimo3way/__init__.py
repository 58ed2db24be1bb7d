"""Degrees of freedom of the asymmetric full-duplex MIMO 3-way channel.

Exact rational converse bounds (cut-set and genie-aided), provably optimal
transmit/receive antenna allocation with machine-checkable LP duality
certificates, constructive zero-forcing schemes attaining the bounds, and
Monte-Carlo sum-rate simulation recovering the DoF as the high-SNR slope.
"""

from . import allocation, bounds, channel, errors, linalg, lp, rates, schemes
from .allocation import *
from .bounds import *
from .channel import *
from .errors import *
from .linalg import *
from .lp import *
from .rates import *
from .schemes import *

__version__ = "0.1.0"

# the package exports exactly what each module's __all__ lists
__all__ = ["__version__"]
__all__ += [name for module in (allocation, bounds, channel, errors, linalg, lp, rates, schemes)
            for name in module.__all__]
