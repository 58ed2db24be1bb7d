"""Zero-forcing transmission schemes achieving the optimal DoF.

Three constructions, one per operating regime:

* UniA (m1 <= m2+m3, every node >= 3 antennas once any symbol extension is
  applied): node 1 sends two messages
  through transmit null spaces of the cross links so each lands silently at
  the unintended receiver; nodes 2 and 3 exchange full-rank streams and
  separate everything with receive-side zero-forcing projectors. Fractional
  optimal splits are realized by coding over a 3-use symbol extension.
* UniB (m1 >= m2+m3): nodes 2 and 3 send everything to node 1, which has
  enough receive antennas to zero-force the two transmissions apart.
* Bcast: node 2 sends a unicast message to node 1 while node 3 broadcasts a
  message decoded by both other nodes.

Builders return the full matrix-level description (precoders per message,
projectors per message/receiver pair); `verify_scheme` replays a zero-noise
transmission and checks interference leakage, conditioning, and exact
decodability, reporting failures instead of raising.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .allocation import Regime, canonical_split
from .channel import AntennaConfig, AntennaSplit, ChannelSet, receive
from .errors import InternalError, InvalidInputError, RegimeError
from .linalg import (
    PRECODER_STREAM,
    SYMBOL_STREAM,
    complex_gaussian,
    generator,
    null_space_basis,
    random_orthonormal,
)
from .rational import frac_str

__all__ = [
    "SchemeTag",
    "SchemeMessage",
    "SchemeInstance",
    "MessageCheck",
    "VerificationReport",
    "scheme_split",
    "build_uni_a",
    "build_uni_b",
    "build_bcast",
    "build_scheme",
    "pair_matrices",
    "verify_scheme",
]


class SchemeTag(enum.Enum):
    UNI_A = "uni-a"
    UNI_B = "uni-b"
    BCAST = "bcast"


@dataclass(frozen=True)
class SchemeMessage:
    """One message: source node, intended receiver(s), planned stream count
    (in the symbol-extended system)."""

    key: str
    tx: int
    receivers: tuple[int, ...]
    dim: int

    @property
    def weight(self) -> int:
        return len(self.receivers)


@dataclass(frozen=True)
class SchemeInstance:
    """A fully built scheme for one channel realization.

    `split` and all matrices live in the symbol-extended system (antenna
    counts scaled by extension_factor); DoF accounting divides back down.
    """

    tag: SchemeTag
    config: AntennaConfig
    split: AntennaSplit
    extension_factor: int
    messages: tuple[SchemeMessage, ...]
    precoders: Mapping[str, np.ndarray] = field(repr=False)
    projectors: Mapping[tuple[str, int], np.ndarray] = field(repr=False)

    def message(self, key: str) -> SchemeMessage:
        for m in self.messages:
            if m.key == key:
                return m
        raise InvalidInputError(f"no message {key!r} in scheme {self.tag.value}")

    def tx_streams(self, node: int) -> int:
        """Total streams transmitted by `node` (extended system)."""
        return sum(m.dim for m in self.messages if m.tx == node)

    def claimed_dof(self) -> Fraction:
        return sum((Fraction(m.dim * m.weight, self.extension_factor) for m in self.messages), Fraction(0))


_SCHEME_REGIME = {SchemeTag.UNI_A: Regime.BALANCED, SchemeTag.UNI_B: Regime.HUB, SchemeTag.BCAST: Regime.BROADCAST}


def scheme_split(config: AntennaConfig, tag: SchemeTag) -> tuple[AntennaSplit, int]:
    """Integer antenna split and symbol-extension factor for a scheme.

    The returned split is the canonical optimal split of the scheme's regime
    scaled by the extension factor (1 when the split is already integral,
    else 3): channels must be drawn at exactly this split.
    """
    if not isinstance(tag, SchemeTag):
        raise InvalidInputError(f"expected a SchemeTag, got {type(tag).__name__}")
    return _scheme_split(config, tag)


# memoized: each builder asks again for the split its caller drew channels at
@functools.lru_cache(maxsize=256)
def _scheme_split(config: AntennaConfig, tag: SchemeTag) -> tuple[AntennaSplit, int]:
    if config.m3 < 1:
        raise RegimeError(f"scheme {tag.value} needs at least one antenna per node, got {config.totals}")
    split = canonical_split(config, _SCHEME_REGIME[tag])
    ext = split.extension_factor
    # extension triples every antenna count, so the floor binds only when
    # the optimal split is already integral
    if tag is SchemeTag.UNI_A and ext * config.m3 < 3:
        raise RegimeError(
            f"scheme uni-a needs at least 3 antennas at every node (after "
            f"symbol extension) so each can split into transmit and receive "
            f"groups, got {config.totals} with extension factor {ext}"
        )
    return (split.scaled(ext) if ext > 1 else split), ext


def _check_channels(split: AntennaSplit, channels: ChannelSet, ext: int) -> None:
    if not isinstance(channels, ChannelSet):
        raise InvalidInputError(f"expected a ChannelSet, got {type(channels).__name__}")
    if channels.split != split:
        raise InvalidInputError(
            f"channels drawn for split {channels.split.to_json()} but the scheme needs "
            f"{split.to_json()} (extension factor {ext}); draw channels at the extended split"
        )


def _ortho_conj(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of range(mat)."""
    return null_space_basis(mat.conj().T)


def build_uni_a(config: AntennaConfig, channels: ChannelSet, seed: int) -> SchemeInstance:
    """Scheme for m1 <= m2+m3 achieving m1 + (m2+m3-m1)/3 per channel use.

    Node 1 precodes u12 into null(H13) and u13 into null(H12); nodes 2 and 3
    send square orthonormal-precoded streams. Each receiver projects onto the
    complement of what it must ignore: at node 2, u12 is read in the
    complement of H32 T32 and u32 in the complement of H12 T12 (node 3
    mirrors this with its own links).
    """
    split, ext = scheme_split(config, SchemeTag.UNI_A)
    _check_channels(split, channels, ext)
    (t1, t2, t3), (r1, r2, r3) = split.integer_pairs()

    rng = generator(seed, PRECODER_STREAM)
    h12, h13 = channels.h(1, 2), channels.h(1, 3)
    h23, h32 = channels.h(2, 3), channels.h(3, 2)

    pre = {
        "u12": null_space_basis(h13),
        "u13": null_space_basis(h12),
        "u23": random_orthonormal(rng, t2, t2),
        "u32": random_orthonormal(rng, t3, t3),
    }
    proj = {
        ("u12", 2): _ortho_conj(h32 @ pre["u32"]),
        ("u32", 2): _ortho_conj(h12 @ pre["u12"]),
        ("u13", 3): _ortho_conj(h23 @ pre["u23"]),
        ("u23", 3): _ortho_conj(h13 @ pre["u13"]),
    }
    messages = (
        SchemeMessage("u12", 1, (2,), t1 - r3),
        SchemeMessage("u13", 1, (3,), t1 - r2),
        SchemeMessage("u23", 2, (3,), t2),
        SchemeMessage("u32", 3, (2,), t3),
    )
    return SchemeInstance(SchemeTag.UNI_A, config, split, ext, messages, pre, proj)


def build_uni_b(config: AntennaConfig, channels: ChannelSet, seed: int) -> SchemeInstance:
    """Scheme for m1 >= m2+m3 achieving m2+m3: nodes 2 and 3 send full rank
    to node 1, which zero-forces them apart; node 1 itself stays silent."""
    split, ext = scheme_split(config, SchemeTag.UNI_B)
    _check_channels(split, channels, ext)
    (_, t2, t3), _ = split.integer_pairs()

    rng = generator(seed, PRECODER_STREAM)
    h21, h31 = channels.h(2, 1), channels.h(3, 1)

    pre = {
        "u21": random_orthonormal(rng, t2, t2),
        "u31": random_orthonormal(rng, t3, t3),
    }
    proj = {
        ("u21", 1): _ortho_conj(h31 @ pre["u31"]),
        ("u31", 1): _ortho_conj(h21 @ pre["u21"]),
    }
    messages = (
        SchemeMessage("u21", 2, (1,), t2),
        SchemeMessage("u31", 3, (1,), t3),
    )
    return SchemeInstance(SchemeTag.UNI_B, config, split, ext, messages, pre, proj)


def build_bcast(config: AntennaConfig, channels: ChannelSet, seed: int) -> SchemeInstance:
    """Broadcast scheme achieving weighted DoF m2+m3.

    Node 3 broadcasts m3 streams decoded at both node 1 (zero-forcing away
    node 2's unicast) and node 2 (plain inversion of the square link); node 2
    sends m2-m3 unicast streams to node 1. Node 1 transmits nothing but keeps
    m1-m2 transmit antennas, the canonical point of the optimal band.
    """
    split, ext = scheme_split(config, SchemeTag.BCAST)
    _check_channels(split, channels, ext)
    (_, t2, t3), _ = split.integer_pairs()

    rng = generator(seed, PRECODER_STREAM)
    h21, h31 = channels.h(2, 1), channels.h(3, 1)

    pre = {
        "u21": random_orthonormal(rng, t2, t2),
        "u3bc": random_orthonormal(rng, t3, t3),
    }
    proj = {
        ("u21", 1): _ortho_conj(h31 @ pre["u3bc"]),
        ("u3bc", 1): _ortho_conj(h21 @ pre["u21"]),
        ("u3bc", 2): np.eye(t3, dtype=np.complex128),
    }
    messages = (
        SchemeMessage("u21", 2, (1,), t2),
        SchemeMessage("u3bc", 3, (1, 2), t3),
    )
    return SchemeInstance(SchemeTag.BCAST, config, split, ext, messages, pre, proj)


_BUILDERS = {
    SchemeTag.UNI_A: build_uni_a,
    SchemeTag.UNI_B: build_uni_b,
    SchemeTag.BCAST: build_bcast,
}


def build_scheme(config: AntennaConfig, tag: SchemeTag, channels: ChannelSet, seed: int) -> SchemeInstance:
    return _BUILDERS[tag](config, channels, seed)


@dataclass(frozen=True)
class MessageCheck:
    """Verification outcome for one (message, receiver) pair."""

    message: str
    receiver: int
    interference_residual: float
    condition_ratio: float
    roundtrip_error: float
    passed: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "message": self.message,
            "receiver": self.receiver,
            "interference_residual": self.interference_residual,
            "condition_ratio": self.condition_ratio,
            "roundtrip_error": None if np.isnan(self.roundtrip_error) else self.roundtrip_error,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    achieved_dof: Fraction
    claimed_dof: Fraction
    checks: tuple[MessageCheck, ...]
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "achieved_dof": frac_str(self.achieved_dof),
            "claimed_dof": frac_str(self.claimed_dof),
            "checks": [c.to_json() for c in self.checks],
            "failures": list(self.failures),
        }


def pair_matrices(
    scheme: SchemeInstance,
    channels: ChannelSet,
    m: SchemeMessage,
    r: int,
    q: np.ndarray | None = None,
) -> tuple[np.ndarray, Iterator[tuple[SchemeMessage, np.ndarray]]]:
    """Effective matrix of message `m` at receiver `r`, and its interferers.

    Returns G = Q^H H T, with Q the scheme's projector for (m, r) unless `q`
    replaces it, plus a lazy iterator yielding (other, Q^H H' T') for every
    other message with streams that reaches r from another node over H'.
    Nothing about the interferers is computed until the iterator is read.
    """
    if q is None:
        q = scheme.projectors[(m.key, r)]
    qh = q.conj().T

    def leaks():
        for other in scheme.messages:
            if other.key == m.key or other.tx == r or other.dim == 0:
                continue
            yield other, qh @ channels.h(other.tx, r) @ scheme.precoders[other.key]

    return qh @ channels.h(m.tx, r) @ scheme.precoders[m.key], leaks()


def _spectral(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def verify_scheme(
    scheme: SchemeInstance,
    channels: ChannelSet,
    *,
    residual_tol: float = 1e-10,
    condition_tol: float = 1e-8,
    roundtrip_tol: float = 1e-8,
    seed: int = 0,
) -> VerificationReport:
    """Replay a zero-noise transmission and check the scheme end to end.

    Per (message, receiver) pair: interference from every other visible
    message must project to a relative residual <= residual_tol; the
    effective matrix Q^H H T must be square, nonvanishing against the scale
    of its factors, and have smin > condition_tol * smax; and solving it must
    return the sent symbols to roundtrip_tol relative error. Failures mark the report invalid; nothing raises on a bad
    realization, only on malformed inputs. achieved_dof counts the streams of
    the pairs that passed (per receiver for the broadcast message), so a
    valid report always has achieved == claimed.
    """
    if not isinstance(scheme, SchemeInstance):
        raise InvalidInputError(f"expected a SchemeInstance, got {type(scheme).__name__}")
    _check_channels(scheme.split, channels, scheme.extension_factor)
    split = scheme.split
    rng = generator(seed, SYMBOL_STREAM)
    # each link's and precoder's norm is taken once, however many pairs use it
    h_norm = functools.cache(lambda tx, r: _spectral(channels.h(tx, r)))
    t_norm = functools.cache(lambda key: _spectral(scheme.precoders[key]))

    symbols = {m.key: complex_gaussian(rng, m.dim, 1) for m in scheme.messages}
    x = []
    for node in (1, 2, 3):
        xi = np.zeros((int(split.tx_of(node)), 1), dtype=np.complex128)
        for m in scheme.messages:
            if m.tx == node and m.dim > 0:
                xi = xi + scheme.precoders[m.key] @ symbols[m.key]
        x.append(xi)
    noise = [np.zeros((int(split.rx_of(node)), 1), dtype=np.complex128) for node in (1, 2, 3)]
    y = receive(split, channels, x, noise)

    checks = []
    failures = []
    achieved = Fraction(0)
    for m in scheme.messages:
        for r in m.receivers:
            q = scheme.projectors[(m.key, r)]
            g, leaks = pair_matrices(scheme, channels, m, r, q)
            fails = []

            worst = 0.0
            for other, leak in leaks:
                denom = h_norm(other.tx, r) * t_norm(other.key)
                if denom > 0:
                    worst = max(worst, _spectral(leak) / denom)
            if worst > residual_tol:
                fails.append("interference")

            cond = 0.0
            rt = float("nan")
            if m.dim > 0:
                if g.shape[0] != g.shape[1]:
                    fails.append("effective-matrix-not-square")
                else:
                    s = np.linalg.svd(g, compute_uv=False)
                    smax = float(s[0]) if s.size else 0.0
                    smin = float(s[-1]) if s.size else 0.0
                    # scale anchors the test: a numerically zero G has a
                    # perfect smin/smax ratio but has still lost rank
                    scale = h_norm(m.tx, r) * t_norm(m.key) * _spectral(q)
                    cond = smin / smax if smax > 0 else 0.0
                    if smax <= condition_tol * scale:
                        fails.append("rank-deficient")
                    elif smin <= condition_tol * smax:
                        fails.append("ill-conditioned")
                    else:
                        decoded = np.linalg.solve(g, q.conj().T @ y[r - 1])
                        u = symbols[m.key]
                        rt = float(np.linalg.norm(decoded - u) / np.linalg.norm(u))
                        if rt > roundtrip_tol:
                            fails.append("roundtrip")

            ok = not fails
            if ok:
                achieved += Fraction(m.dim, scheme.extension_factor)
            else:
                failures.extend(f"{m.key}@{r}:{f}" for f in fails)
            checks.append(
                MessageCheck(
                    message=m.key,
                    receiver=r,
                    interference_residual=worst,
                    condition_ratio=cond,
                    roundtrip_error=rt,
                    passed=ok,
                    failures=tuple(fails),
                )
            )

    claimed = scheme.claimed_dof()
    valid = not failures
    if valid and achieved != claimed:
        raise InternalError("all checks passed but achieved DoF differs from claimed")
    return VerificationReport(
        valid=valid,
        achieved_dof=achieved,
        claimed_dof=claimed,
        checks=tuple(checks),
        failures=tuple(failures),
    )
