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
__all__ += allocation.__all__
__all__ += bounds.__all__
__all__ += channel.__all__
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += lp.__all__
__all__ += rates.__all__
__all__ += schemes.__all__
