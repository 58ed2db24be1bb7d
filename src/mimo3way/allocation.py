"""Optimal transmit/receive antenna allocation.

Given total antenna counts (m1 >= m2 >= m3), pick the per-node split
maximizing the combined genie bound (unicast) or the combined cut-set bound
(with the node-3 broadcast message). Three independent routes to the unicast
optimum are provided and must agree exactly:

* a closed form, optimal receive split (0, (m1+2m2-m3)/3, (m1+2m3-m2)/3) with
  value m1 + (m2+m3-m1)/3 when m1 <= m2+m3, and (m2+m3, 0, 0) with value
  m2+m3 otherwise;
* exhaustive enumeration of the 2^6 sign patterns of the five-term genie
  objective, each pattern a small rational LP solved exactly, returning the
  winning subproblem's primal/dual pair as a machine-checkable certificate;
* brute-force search over the split grid with a given denominator.

Fractional splits (denominators are always 1 or 3) are realized operationally
by symbol extension: scale every antenna count by the lcm of the denominators
and code over that many channel uses.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import GENIE_TERMS, _attains, _broadcast_totals, genie_totals
from .channel import AntennaConfig, AntennaSplit, _ordered
from .errors import InternalError, InvalidInputError, RegimeError, instance, integer, sequence
from .lp import DualityStatus, LinearProgram, _phase1, _Unbounded, _Walk, verify_duality
from .rational import _rationals, frac, frac_str

__all__ = [
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
]


class Regime(enum.Enum):
    BALANCED = "m1<=m2+m3"
    HUB = "m1>=m2+m3"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class ClosedFormCertificate:
    """The value follows from a named formula rather than an LP pair."""

    tag: str

    def to_json(self) -> dict:
        return {"type": "closed-form", "tag": self.tag}


@dataclass(frozen=True)
class DualityPairCertificate:
    """Primal point and dual multipliers with exactly zero gap for `lp`."""

    lp: LinearProgram
    v: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]
    gap: Fraction

    def to_json(self) -> dict:
        return {
            "type": "duality-pair",
            "lp": self.lp.to_json(),
            "v": [frac_str(x) for x in self.v],
            "lam": [frac_str(x) for x in self.lam],
            "gap": frac_str(self.gap),
        }


@dataclass(frozen=True)
class TransmitSumBand:
    """Optimality condition for broadcast splits: every transmit allocation
    with low <= tx1+tx2+tx3 <= high (and 0 <= tx_l <= m_l) is optimal."""

    low: Fraction
    high: Fraction

    def contains(self, config: AntennaConfig, tx) -> bool:
        instance(config, AntennaConfig)
        tx = _rationals(tx, "tx must be a sequence of rationals", 3)
        return len(tx) == 3 and all(0 <= t <= m for t, m in zip(tx, config.totals)) and self.low <= sum(tx) <= self.high

    def to_json(self) -> dict:
        return {"low": frac_str(self.low), "high": frac_str(self.high)}


@dataclass(frozen=True)
class AllocationResult:
    optimal_dof: Fraction
    split: AntennaSplit
    certificate: ClosedFormCertificate | DualityPairCertificate
    regime: Regime
    broadcast_band: TransmitSumBand | None = None

    @property
    def extension_factor(self) -> int:
        """The split's symbol-extension factor: 1 when it is integral, else 3."""
        return self.split.extension_factor

    def to_json(self) -> dict:
        return {
            "optimal_dof": frac_str(self.optimal_dof),
            "split": self.split.to_json(),
            "certificate": self.certificate.to_json(),
            "regime": self.regime.value,
            "extension_factor": self.extension_factor,
            "broadcast_band": None if self.broadcast_band is None else self.broadcast_band.to_json(),
        }


def _unicast_thrice(m1, m2, m3):
    """3 x the optimal unicast sum-DoF; the first term wins iff m1 <= m2+m3.
    Homogeneous of degree 1, so the ratio sweep runs it on integer numerators."""
    return min(2 * m1 + m2 + m3, 3 * (m2 + m3))


def _broadcast_thrice(_m1, m2, m3):
    """3 x the optimal weighted sum-DoF with the node-3 broadcast message (m1 unread, as the sweep passes it)."""
    return 3 * (m2 + m3)


def unicast_optimal_value(m1, m2, m3) -> Fraction:
    """Optimal unicast sum-DoF; works for rational totals."""
    return _unicast_thrice(*_ordered(frac(m1), frac(m2), frac(m3))) / 3


def broadcast_optimal_value(m1, m2, m3) -> Fraction:
    """Optimal weighted sum-DoF with the node-3 broadcast message: m2+m3."""
    return _broadcast_thrice(*_ordered(frac(m1), frac(m2), frac(m3))) / 3


def holds(regime: Regime, config: AntennaConfig) -> bool:
    """Whether `config` lies in `regime`; at m1 = m2+m3 both unicast regimes
    hold, and the broadcast regime holds everywhere."""
    instance(config, AntennaConfig)
    instance(regime, Regime)
    if regime is Regime.BALANCED:
        return config.m1 <= config.m2 + config.m3
    if regime is Regime.HUB:
        return config.m1 >= config.m2 + config.m3
    return True


def canonical_split(config: AntennaConfig, regime: Regime) -> AntennaSplit:
    """The canonical optimal split of `regime`; RegimeError outside it.

    Balanced listens with (0, (m1+2m2-m3)/3, (m1+2m3-m2)/3), hub with
    (m2+m3, 0, 0), and broadcast with (m2, m3, 0); every node transmits with
    the rest of its antennas.
    """
    if not holds(regime, config):
        op = "<=" if regime is Regime.BALANCED else ">="
        raise RegimeError(f"the {regime.name.lower()} split applies only when m1 {op} m2+m3, got {config.totals}")
    m1, m2, m3 = config.totals
    rx = {  # receive numerators over 3
        Regime.BALANCED: (0, m1 + 2 * m2 - m3, m1 + 2 * m3 - m2),
        Regime.HUB: (3 * (m2 + m3), 0, 0),
        Regime.BROADCAST: (3 * m2, 3 * m3, 0),
    }[regime]
    return AntennaSplit._thirds(tuple(3 * m - r for m, r in zip(config.totals, rx)), rx)


def _unicast_regime(config: AntennaConfig) -> Regime:
    # boundary configs satisfy both formulas; report the balanced tag
    return Regime.BALANCED if holds(Regime.BALANCED, config) else Regime.HUB


def optimal_unicast_closed_form(config: AntennaConfig) -> AllocationResult:
    """Unicast optimum by formula, with the canonical optimal split."""
    value = Fraction(_unicast_thrice(*instance(config, AntennaConfig).totals), 3)
    regime = _unicast_regime(config)
    split = canonical_split(config, regime)
    if not _attains(split._counts, genie_totals, value):
        raise InternalError("closed-form split does not attain the closed-form value")
    certificate = ClosedFormCertificate(f"closed-form({regime.value})")
    return AllocationResult(optimal_dof=value, split=split, certificate=certificate, regime=regime)


# the six max(rx_a, tx_b) terms as (a, b); terms 2j and 2j+1 make up GENIE_TERMS[j]
_MAX_TERMS = tuple(pair for _, *pairs in GENIE_TERMS for pair in pairs)


def _mirror_bits(bits: tuple[bool, ...]) -> tuple[bool, ...]:
    """Image of a sign pattern under swapping every node's tx and rx counts.

    Swapping maps max(rx_a, tx_b) onto the partner term max(rx_b, tx_a), term
    k ^ 1, with the opposite branch active, so orbits have size at most 2 and
    only one representative per orbit needs solving.
    """
    return tuple(not bits[k ^ 1] for k in range(len(bits)))


@functools.cache
def _genie_rows(bits: tuple[bool, ...]):
    """The genie subproblem of one sign pattern, config-free: (integer row
    coefficients on (dof, rx1, rx2, rx3), each rhs as the integer form
    (const, m1, m2, m3), labels). Bit k True picks the rx side of max term k,
    False the tx side, each choice enforced by a branch inequality so the
    union of the 2^6 polytopes is the full feasible set."""

    def vec(*entries):  # the 4-vector that adds s at index l for each (l, s)
        out = [0, 0, 0, 0]
        for l, s in entries:
            out[l] += s
        return tuple(out)

    # the (coefficient, rhs) entries max term k adds to a row dof - t <= 0: t = rx_a, or t = tx_b = m_b - rx_b
    terms = [(((a, -1),), ()) if bit else (((b, 1),), ((b, 1),)) for bit, (a, b) in zip(bits, _MAX_TERMS)]
    rows = [(vec((0, 1), (1, -1), (2, -1), (3, -1)), vec(), "dof<=sum_rx"),
            (vec((0, 1), (1, 1), (2, 1), (3, 1)), vec((1, 1), (2, 1), (3, 1)), "dof<=sum_tx")]
    for (label, _, _), (c1, f1), (c2, f2) in zip(GENIE_TERMS, terms[::2], terms[1::2]):
        rows.append((vec((0, 1), *c1, *c2), vec(*f1, *f2), f"dof<={label}"))
    for bit, (a, b) in zip(bits, _MAX_TERMS):
        s = -1 if bit else 1  # rx_a >= tx_b when the bit is set, else tx_b >= rx_a
        rows.append((vec((a, s), (b, s)), vec((b, s)), f"rx{a}>=tx{b}" if bit else f"tx{b}>=rx{a}"))
    rows += [(vec((l, 1)), vec((l, 1)), f"rx{l}<=m{l}") for l in (1, 2, 3)]
    rows += [(vec((l, -1)), vec(), f"rx{l}>=0") for l in (1, 2, 3)]
    rows.append((vec((0, -1)), vec(), "dof>=0"))
    return tuple(zip(*rows))


@functools.cache
def _subproblem(bits: tuple[bool, ...]) -> LinearProgram:
    """One pattern's genie subproblem at rhs 0, checked once: its Fraction
    rows, labels and their integer form do not depend on the config."""
    a, _, labels = _genie_rows(bits)
    return LinearProgram(c=(-1, 0, 0, 0), a=a, b=(0,) * len(a), variables=("dof", "rx1", "rx2", "rx3"),
                         constraints=labels)


def genie_subproblem(config: AntennaConfig, bits: tuple[bool, ...]) -> LinearProgram:
    """LP for one sign pattern of the genie objective: `_genie_rows` at the
    config, over the variables (dof, rx1, rx2, rx3)."""
    instance(config, AntennaConfig)
    bits = sequence(bits, "pattern bits must be a sequence of True or False", len(_MAX_TERMS))  # a tuple: a cache key
    if len(bits) != len(_MAX_TERMS) or not all(type(b) is bool for b in bits):
        raise InvalidInputError(f"expected {len(_MAX_TERMS)} pattern bits (True or False), got {bits!r}")
    m1, m2, m3 = config.totals
    return _subproblem(bits)._at(tuple(Fraction(c + x * m1 + y * m2 + z * m3) for c, x, y, z in _genie_rows(bits)[1]))


@functools.cache
def _template(bits: tuple[bool, ...]) -> _Walk:
    """The phase-2 walk of one sign pattern: the dual's rows A' and rhs
    -c = (1, 0, 0, 0) do not depend on the config, so neither does its phase
    1, which finds every pattern's dual feasible (else an internal error),
    and its cost b(m) is linear in (1, m1, m2, m3) by the rhs forms. It runs
    in cone coordinates: an ordered config is mu = (1, m1-m2, m2-m3, m3) >= 0
    times the generators (1,0,0,0), (0,1,0,0), (0,1,1,0), (0,1,1,1), so a form
    (c, x, y, z) reads (c, x, x+y, x+y+z), with the same reduced costs at mu."""
    a, forms, _ = _genie_rows(bits)
    start = _phase1(list(zip(*a)), (1, 0, 0, 0))
    if start is None:
        raise InternalError(f"the genie dual of pattern {bits} is infeasible")
    return _Walk(start, [(c, x, x + y, x + y + z) for c, x, y, z in forms])


# the smaller pattern of each tx/rx-swap orbit
_ORBITS = tuple(b for b in itertools.product((False, True), repeat=len(_MAX_TERMS)) if b <= _mirror_bits(b))


def optimal_unicast_enumerated(config: AntennaConfig) -> AllocationResult:
    """Unicast optimum by exhaustive sign-pattern enumeration.

    Walks one exact LP per tx/rx-swap orbit of the 2^6 patterns, the orbit's
    cached phase-2 walk (`_template`) at the cost b(m), to its optimal node,
    and keeps the first strict maximum of the value v[0], compared as
    integer ratios over each node's determinant. Only the winner's pair is
    read off as Fractions and built as a `LinearProgram`, to re-verify it,
    and the value is cross-checked against the closed form; any disagreement
    is an internal error, never a silent maximum.
    """
    closed = optimal_unicast_closed_form(config)
    best, params = None, (1, config.m1 - config.m2, config.m2 - config.m3, config.m3)  # as `_template` reads them
    for bits in _ORBITS:
        walk = _template(bits)
        try:
            node = walk.optimum(params)
        except _Unbounded:
            continue  # empty branch polytope
        num, d = walk.multiplier(node, params, 0), node[0].d  # v[0] = num / d, d > 0
        if best is None or num * best[1] > best[0] * d:
            best = (num, d, bits, walk, node)
    if best is None:
        raise InternalError("no genie subproblem was feasible")
    _, _, bits, walk, node = best
    lam, v = walk.read(node, params)
    value = v[0]
    if value != closed.optimal_dof:
        raise InternalError(
            f"enumerated optimum {frac_str(value)} != closed form {frac_str(closed.optimal_dof)}"
        )
    lp = genie_subproblem(config, bits)
    cert_check = verify_duality(lp, v, lam)
    if cert_check.status is not DualityStatus.OPTIMAL:
        raise InternalError(f"simplex produced a non-optimal certificate: {cert_check.status.value}")
    certificate = DualityPairCertificate(lp=lp, v=tuple(v), lam=tuple(lam), gap=cert_check.gap)
    return AllocationResult(optimal_dof=value, split=closed.split, certificate=certificate, regime=closed.regime)


def _genie_value_grid(s1: int, s2: int, s3: int) -> np.ndarray:
    """Combined genie bound on the integer grid of tx counts.

    Entry [t1, t2, t3] is the bound for tx = (t1, t2, t3), rx = s - tx.
    Plain int64 arithmetic, so values are exact.
    """
    tx = np.ogrid[: s1 + 1, : s2 + 1, : s3 + 1]
    rx = [s - t for s, t in zip((s1, s2, s3), tx)]
    return functools.reduce(np.minimum, (v for _, v in genie_totals(tx, rx, np.maximum)))


# Largest split grid optimal_unicast_bruteforce evaluates. The grid has
# (n*m1+1)(n*m2+1)(n*m3+1) cells for denominator n, and building it keeps a
# handful of int64 arrays of that size alive (about 8 MB each at this cap);
# (10,10,10) at denominator 3, the largest acceptance config, needs 29,791.
BRUTEFORCE_MAX_CELLS = 1_000_000


def optimal_unicast_bruteforce(config: AntennaConfig, denominator: int = 3) -> AllocationResult:
    """Unicast optimum by exhaustive search over the 1/denominator grid.

    Evaluates the combined genie bound at every split whose entries are
    multiples of 1/denominator, vectorized over the integer grid scaled by
    the denominator. Ties resolve to the lexicographically smallest transmit
    triple. With denominator 3 the value matches the closed form exactly.
    Grids over BRUTEFORCE_MAX_CELLS cells are refused with InvalidInputError
    before anything is allocated.
    """
    n = integer(denominator, "denominator", 1)
    instance(config, AntennaConfig)
    scaled = tuple(n * m for m in config.totals)
    cells = math.prod(s + 1 for s in scaled)
    if cells > BRUTEFORCE_MAX_CELLS:
        raise InvalidInputError(
            f"brute-force grid for m={config.totals} at denominator {n} has {cells} cells, "
            f"over the limit of {BRUTEFORCE_MAX_CELLS}"
        )
    grid = _genie_value_grid(*scaled)
    idx = np.unravel_index(int(grid.argmax()), grid.shape)  # first maximum in C order = lexicographic tie-break
    tx = tuple(Fraction(int(t), n) for t in idx)
    split = AntennaSplit(tx, tuple(Fraction(m) - t for m, t in zip(config.totals, tx)))
    value = Fraction(int(grid[idx]), n)
    if not _attains(split._counts, genie_totals, value):
        raise InternalError("vectorized grid bound disagrees with genie_bound_unicast")
    certificate = ClosedFormCertificate(f"grid-search(denominator={n})")
    return AllocationResult(optimal_dof=value, split=split, certificate=certificate, regime=_unicast_regime(config))


def optimal_broadcast(config: AntennaConfig) -> AllocationResult:
    """Optimal allocation with the node-3 broadcast message.

    The weighted optimum is m2+m3; the canonical split transmits with
    (m1-m2, m2-m3, m3) and listens with (m2, m3, 0), and any transmit total
    inside [m2, m1] (within the per-node boxes) is equally optimal, which the
    attached band records.
    """
    split = canonical_split(config, Regime.BROADCAST)
    value = Fraction(_broadcast_thrice(*config.totals), 3)
    band = TransmitSumBand(low=Fraction(config.m2), high=Fraction(config.m1))
    d, tx, _ = counts = split._counts  # band.contains(config, split.tx) and the cut-set check, on integers over d
    if not (all(0 <= t <= m * d for t, m in zip(tx, config.totals)) and config.m2 * d <= sum(tx) <= config.m1 * d):
        raise InternalError("canonical broadcast split fell outside its own optimality band")
    if not _attains(counts, _broadcast_totals, value):
        raise InternalError("canonical broadcast split does not attain m2+m3")
    return AllocationResult(optimal_dof=value, split=split, certificate=ClosedFormCertificate("closed-form(broadcast)"),
                            regime=Regime.BROADCAST, broadcast_band=band)


def canonical_subproblem(config: AntennaConfig) -> LinearProgram:
    """The genie subproblem whose optimum is the balanced-regime unicast
    value (2m1+m2+m3)/3.

    `genie_subproblem` for the sign pattern with rx2 and rx3 winning both
    genie{2,3} max terms and the tx side winning the other four, plus a last
    row 0.v <= m2+m3-m1 (regime:m1<=m2+m3), so the program is simply
    infeasible outside that regime.
    """
    lp = genie_subproblem(config, (True, True, False, False, False, False))
    m1, m2, m3 = config.totals
    return replace(
        lp,
        a=lp.a + ((0, 0, 0, 0),),
        b=lp.b + (m2 + m3 - m1,),
        constraints=lp.constraints + ("regime:m1<=m2+m3",),
    )


def canonical_primal_dual(config: AntennaConfig):
    """Closed-form optimal pair for `canonical_subproblem`.

    Returns (lp, v, lam): v = ((2m1+m2+m3)/3, 0, (m1+2m2-m3)/3,
    (m1+2m3-m2)/3) and lam is 1/3 on each of the rows dof<=genie{2,3},
    dof<=genie{1,2} and dof<=genie{1,3}, 2/3 on rx1>=0 and 0 elsewhere. Only
    defined in the m1 <= m2+m3 regime, where the pair verifies with exactly
    zero gap.
    """
    split = canonical_split(config, Regime.BALANCED)
    lp = canonical_subproblem(config)
    v = (unicast_optimal_value(*config.totals), *split.rx)
    third = Fraction(1, 3)
    support = {"dof<=genie{2,3}": third, "dof<=genie{1,2}": third, "dof<=genie{1,3}": third, "rx1>=0": 2 * third}
    lam = tuple(support.get(label, Fraction(0)) for label in lp.constraints)
    return lp, v, lam
