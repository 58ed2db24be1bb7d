"""Degrees of freedom of the asymmetric full-duplex MIMO 3-way channel.

Exact rational converse bounds (cut-set and genie-aided), provably optimal
transmit/receive antenna allocation with machine-checkable LP duality
certificates, constructive zero-forcing schemes attaining the bounds, and
Monte-Carlo sum-rate simulation recovering the DoF as the high-SNR slope.
"""

from .allocation import (
    AllocationResult,
    ClosedFormCertificate,
    DualityPairCertificate,
    Regime,
    TransmitSumBand,
    broadcast_optimal_value,
    canonical_primal_dual,
    canonical_split,
    canonical_subproblem,
    genie_subproblem,
    holds,
    optimal_broadcast,
    optimal_unicast_bruteforce,
    optimal_unicast_closed_form,
    optimal_unicast_enumerated,
    unicast_optimal_value,
)
from .bounds import (
    BoundReport,
    BoundTerm,
    cutset_bound_broadcast,
    cutset_bound_unicast,
    genie_bound_unicast,
    symmetric_bound,
)
from .channel import (
    PAIR_ORDER,
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    draw_channels,
    receive,
)
from .errors import InternalError, InvalidInputError, RegimeError
from .linalg import (
    null_space_basis,
    pseudo_inverse,
    random_gaussian,
)
from .lp import (
    DualityCertificate,
    DualityStatus,
    LinearProgram,
    LPSolution,
    solve_inequality_min,
    verify_duality,
)
from .rates import SlopeEstimate, ablated_sum_rate, estimate_dof, sum_rate
from .schemes import (
    MessageCheck,
    SchemeInstance,
    SchemeMessage,
    SchemeTag,
    VerificationReport,
    build_scheme,
    scheme_split,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # channel model
    "PAIR_ORDER",
    "AntennaConfig",
    "AntennaSplit",
    "ChannelSet",
    "draw_channels",
    "receive",
    # linear algebra kernel
    "null_space_basis",
    "pseudo_inverse",
    "random_gaussian",
    # bounds
    "BoundTerm",
    "BoundReport",
    "cutset_bound_unicast",
    "genie_bound_unicast",
    "symmetric_bound",
    "cutset_bound_broadcast",
    # linear programming
    "LinearProgram",
    "LPSolution",
    "DualityStatus",
    "DualityCertificate",
    "solve_inequality_min",
    "verify_duality",
    # allocation
    "Regime",
    "ClosedFormCertificate",
    "DualityPairCertificate",
    "TransmitSumBand",
    "AllocationResult",
    "holds",
    "canonical_split",
    "unicast_optimal_value",
    "broadcast_optimal_value",
    "optimal_unicast_closed_form",
    "optimal_unicast_enumerated",
    "optimal_unicast_bruteforce",
    "optimal_broadcast",
    "genie_subproblem",
    "canonical_subproblem",
    "canonical_primal_dual",
    # schemes
    "SchemeTag",
    "SchemeMessage",
    "SchemeInstance",
    "MessageCheck",
    "VerificationReport",
    "scheme_split",
    "build_scheme",
    "verify_scheme",
    # rates
    "SlopeEstimate",
    "sum_rate",
    "ablated_sum_rate",
    "estimate_dof",
    # errors
    "InvalidInputError",
    "RegimeError",
    "InternalError",
]
