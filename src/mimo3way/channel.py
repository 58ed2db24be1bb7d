"""Three-node full-duplex MIMO channel model.

Every node transmits to and receives from both other nodes at once, so there
are six cross links and no self links. A node with M antennas operates with a
transmit/receive partition (mt, mr), mt + mr = M; the partition is the design
variable everything downstream (bounds, allocation, schemes) optimizes over.
Node indices are 1-based on all public surfaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, instance, integer, sequence
from .linalg import CHANNEL_STREAM, _gaussians, as_matrix
from .rational import _to_integers, frac, frac_str, triple

__all__ = [
    "PAIR_ORDER",
    "AntennaConfig",
    "AntennaSplit",
    "ChannelSet",
    "draw_channels",
    "receive",
]

# fixed (tx, rx) enumeration order; also the draw order inside draw_channels
PAIR_ORDER: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))

NODES = (1, 2, 3)

# (tx, rx) -> index into PAIR_ORDER
_PAIR_SLOT = {pair: k for k, pair in enumerate(PAIR_ORDER)}

# Most antennas over all nodes draw_channels draws for: the six links then
# hold at most 1000 * 1000 entries (16 MB); the acceptance configs need 90.
_DRAW_MAX_ANTENNAS = 2000


def _check_node(node: int) -> int:
    return integer(node, "node index", 1, len(NODES))


@dataclass(frozen=True)
class AntennaConfig:
    """Total antenna counts (m1, m2, m3), ordered m1 >= m2 >= m3 >= 0."""

    m1: int
    m2: int
    m3: int

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        _ordered(*self.totals)

    @property
    def totals(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)

    def to_json(self) -> dict:
        return {"m": [self.m1, self.m2, self.m3]}


def _ordered(m1, m2, m3):
    """The ordering rule of antenna totals, integer or rational."""
    if not m1 >= m2 >= m3 >= 0:
        raise InvalidInputError(f"antenna counts must satisfy m1 >= m2 >= m3 >= 0, got ({m1}, {m2}, {m3})")
    return m1, m2, m3


@dataclass(frozen=True)
class AntennaSplit:
    """Per-node transmit/receive antenna partition, possibly fractional.

    Fractional entries arise from the closed-form allocations; they become
    integers after scaling by the symbol-extension factor d, the lcm of the
    denominators (1 or 3 here). `_counts` = (d, tx * d, rx * d), set by
    `_thirds` for an allocated split, is the one home of that integer form.
    """

    tx: tuple[Fraction, Fraction, Fraction]
    rx: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "tx", triple(self.tx, "tx"))
        object.__setattr__(self, "rx", triple(self.rx, "rx"))

    @classmethod
    def _thirds(cls, tx, rx) -> "AntennaSplit":
        """The split (tx/3, rx/3) from int numerators >= 0, unchecked: `allocation.canonical_split` makes them."""
        self = object.__new__(cls)  # frozen: the fields go straight into __dict__, with the cached counts
        d = 3 if any(v % 3 for v in tx + rx) else 1
        self.__dict__.update(tx=tuple(Fraction(v, 3) for v in tx), rx=tuple(Fraction(v, 3) for v in rx),
                             _counts=(d, tuple(v * d // 3 for v in tx), tuple(v * d // 3 for v in rx)))
        return self

    @property
    def totals(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(t + r for t, r in zip(self.tx, self.rx))

    def tx_of(self, node: int) -> Fraction:
        return self.tx[_check_node(node) - 1]

    def rx_of(self, node: int) -> Fraction:
        return self.rx[_check_node(node) - 1]

    def __hash__(self) -> int:  # cached: the memoized scheme plans are keyed on the split
        return self._hash

    _hash = functools.cached_property(lambda self: hash((self.tx, self.rx)))

    @functools.cached_property
    def _counts(self) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
        n, d = _to_integers(self.tx + self.rx)
        return d, tuple(n[:3]), tuple(n[3:])

    @property
    def is_integral(self) -> bool:
        return self.extension_factor == 1

    @property
    def extension_factor(self) -> int:
        """Smallest integer scale that makes every entry integral."""
        return self._counts[0]

    def scaled(self, factor: int) -> "AntennaSplit":
        f = frac(factor)
        return AntennaSplit(tuple(v * f for v in self.tx), tuple(v * f for v in self.rx))

    def integer_pairs(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        # the one home of the rule that channels need an integer split
        d, tx, rx = self._counts
        if d != 1:
            raise InvalidInputError(f"split {self.to_json()} is fractional")
        return tx, rx

    def to_json(self) -> dict:
        return {"mt": [frac_str(v) for v in self.tx], "mr": [frac_str(v) for v in self.rx]}


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """The six cross-link matrices of one channel realization.

    h(i, j) has shape (rx_j, tx_i): rows are receive antennas at node j,
    columns are transmit antennas at node i. `==` and `hash()` go by
    identity (eq=False), as arrays have no one truth value to compare by.
    """

    split: AntennaSplit
    matrices: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        tx, rx = instance(self.split, AntennaSplit).integer_pairs()
        matrices = sequence(self.matrices, f"matrices must be a sequence of {len(PAIR_ORDER)} matrices", len(PAIR_ORDER))
        if len(matrices) != len(PAIR_ORDER):
            raise InvalidInputError(f"expected {len(PAIR_ORDER)} matrices, got {len(matrices)}")
        mats = []
        for (i, j), h in zip(PAIR_ORDER, matrices):
            h = as_matrix(h, name=f"H_{i}{j}")
            want = (rx[j - 1], tx[i - 1])
            if h.shape != want:
                raise InvalidInputError(f"H_{i}{j} must have shape {want}, got {h.shape}")
            h = h.copy()
            h.setflags(write=False)
            mats.append(h)
        object.__setattr__(self, "matrices", tuple(mats))

    @classmethod
    def _drawn(cls, split: AntennaSplit, matrices: tuple[np.ndarray, ...]) -> "ChannelSet":
        """Wrap read-only links made at `split`'s shapes, finite by
        construction, so they skip the checks and copy: `_draw` makes them,
        as (rx_j, tx_i) matrices or as (trials, rx_j, tx_i) stacks with one
        realization per trial. A stacked set goes only to the private
        kernels of `schemes` and `rates`."""
        self = object.__new__(cls)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "matrices", matrices)
        return self

    def h(self, tx_node: int, rx_node: int) -> np.ndarray:
        slot = _PAIR_SLOT.get((_check_node(tx_node), _check_node(rx_node)))
        if slot is None:
            raise InvalidInputError("no self link: tx and rx node coincide")
        return self.matrices[slot]


def draw_channels(split: AntennaSplit, seed: int) -> ChannelSet:
    """One i.i.d. CN(0,1) realization of all six links, deterministic in seed.

    One standard-normal stream from the seed's channel stream is sliced in
    PAIR_ORDER, each link taking its real then its imaginary parts, as
    `complex_gaussian` would draw them link by link; the same (split, seed)
    pair always reproduces the same ChannelSet.
    """
    return _draw(instance(split, AntennaSplit), [seed], ())


def _draw(split: AntennaSplit, seeds, lead: tuple[int, ...]) -> ChannelSet:
    """`draw_channels(split, seed)` for each seed of an integer split, each
    link of shape lead + (rx_j, tx_i): lead is () for one seed and
    (len(seeds),) for a stack of trials."""
    tx, rx = split.integer_pairs()
    if sum(tx) + sum(rx) > _DRAW_MAX_ANTENNAS:
        raise InvalidInputError(f"split {split.to_json()} has over {_DRAW_MAX_ANTENNAS} antennas to draw channels for")
    shapes = [(rx[j - 1], tx[i - 1]) for i, j in PAIR_ORDER]
    draws = _gaussians(seeds, CHANNEL_STREAM, [r * c for r, c in shapes])
    mats = [h.reshape(lead + shape) for h, shape in zip(draws, shapes)]
    for mat in mats:
        mat.setflags(write=False)
    return ChannelSet._drawn(split, tuple(mats))


def receive(channels: ChannelSet, x, noise) -> tuple[np.ndarray, ...]:
    """Receive-side signals y_j = sum_{i != j} H_ij x_i + z_j.

    `x` and `noise` are sequences ordered by node: x_i a finite matrix with
    tx_i rows and z_j one with rx_j rows, tx and rx those of `channels.split`,
    all with one column count; a y_j that overflows float64 is refused.
    Full-duplex self-interference is absent by model.
    """
    tx, rx = instance(channels, ChannelSet).split.integer_pairs()
    x = sequence(x, "x must be a sequence of matrices", len(NODES))
    noise = sequence(noise, "noise must be a sequence of matrices", len(NODES))
    xs = [as_matrix(v, f"x{node}") for node, v in enumerate(x, 1)]
    zs = [as_matrix(v, f"noise{node}") for node, v in enumerate(noise, 1)]
    shapes = [v.shape for v in xs + zs]
    if not len(xs) == len(zs) == 3 or shapes != [(n, shapes[0][1]) for n in tx + rx]:
        raise InvalidInputError(f"x and noise need one matrix per node, {tx} and {rx} rows, one column count: {shapes}")
    with np.errstate(over="ignore", invalid="ignore"):
        ys = _receive(channels, xs, zs)
    if not np.isfinite(np.concatenate([y.ravel() for y in ys])).all():
        raise InvalidInputError("a received signal overflows float64")
    return ys


def _receive(channels: ChannelSet, xs, zs, nodes=NODES) -> tuple[np.ndarray, ...]:
    """`receive` on trusted signals, each stacked on the trial axes of the
    links, if they have any, at each node of `nodes`, zs[k] the noise at
    nodes[k]."""
    ys = []
    for j, zj in zip(nodes, zs):
        yj = zj.astype(np.complex128, copy=True)
        for i in NODES:
            if i != j:
                yj = yj + channels.matrices[_PAIR_SLOT[i, j]] @ xs[i - 1]
        ys.append(yj)
    return tuple(ys)
