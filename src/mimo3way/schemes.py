"""Zero-forcing transmission schemes achieving the optimal DoF.

One builder, `build_scheme`, runs one of two constructions:

* null space, for uni-a (m1 <= m2+m3, every node >= 3 antennas once any
  symbol extension is applied): node 1 sends two messages through transmit
  null spaces of the cross links so each lands silently at the unintended
  receiver; nodes 2 and 3 exchange full-rank streams and separate everything
  with receive-side zero-forcing projectors. Fractional optimal splits are
  realized by coding over a 3-use symbol extension.
* hub, for uni-b (m1 >= m2+m3) and bcast: nodes 2 and 3 send everything to
  node 1, which zero-forces the two transmissions apart. Under bcast node 3
  broadcasts, and node 2 decodes it too.

A built scheme is the full matrix-level description (precoders per message,
projectors per message/receiver pair); `verify_scheme` replays a zero-noise
transmission and checks interference leakage, conditioning, and exact
decodability, reporting failures instead of raising. It takes every singular
value its checks read in one batched SVD per matrix shape and dtype.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .allocation import Regime, canonical_split
from .channel import AntennaConfig, AntennaSplit, ChannelSet, check_config, receive
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
        return Fraction(sum(m.dim * m.weight for m in self.messages), self.extension_factor)


_SCHEME_REGIME = {SchemeTag.UNI_A: Regime.BALANCED, SchemeTag.UNI_B: Regime.HUB, SchemeTag.BCAST: Regime.BROADCAST}


def scheme_split(config: AntennaConfig, tag: SchemeTag) -> tuple[AntennaSplit, int]:
    """Integer antenna split and symbol-extension factor for a scheme.

    The returned split is the canonical optimal split of the scheme's regime
    scaled by the extension factor (1 when the split is already integral,
    else 3): channels must be drawn at exactly this split.
    """
    check_config(config)
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


def build_scheme(config: AntennaConfig, tag: SchemeTag, channels: ChannelSet, seed: int) -> SchemeInstance:
    """Build scheme `tag` on `channels`, drawn at `scheme_split(config, tag)`;
    random precoders come from the precoder stream of `seed`."""
    split, ext = scheme_split(config, tag)
    _check_channels(split, channels, ext)
    rng = generator(seed, PRECODER_STREAM)
    pairs = split.integer_pairs()
    if tag is SchemeTag.UNI_A:
        built = _null_space(pairs, channels, rng)
    elif tag is SchemeTag.UNI_B:
        built = _hub(pairs, channels, rng, "u31", (1,))
    else:
        built = _hub(pairs, channels, rng, "u3bc", (1, 2))
    return SchemeInstance(tag, config, split, ext, *built)


def _null_space(pairs, channels, rng):
    """uni-a: m1 + (m2+m3-m1)/3 per channel use for m1 <= m2+m3.

    Node 1 precodes u12 into null(H13) and u13 into null(H12); nodes 2 and 3
    send square orthonormal-precoded streams. Each receiver projects onto the
    complement of what it must ignore: at node 2, u12 is read in the
    complement of H32 T32 and u32 in the complement of H12 T12 (node 3
    mirrors this with its own links).
    """
    (t1, t2, t3), (_, r2, r3) = pairs
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
    return messages, pre, proj


def _hub(pairs, channels, rng, key3: str, receivers3: tuple[int, ...]):
    """uni-b and bcast: weighted DoF m2+m3. Nodes 2 and 3 send u21 and `key3`
    full rank to node 1, which reads each in the complement of the other's
    image. Node 2, when in `receivers3` (bcast), inverts its square link from
    node 3 (identity projector); node 1 stays silent."""
    (_, t2, t3), _ = pairs
    h21, h31 = channels.h(2, 1), channels.h(3, 1)

    pre = {
        "u21": random_orthonormal(rng, t2, t2),
        key3: random_orthonormal(rng, t3, t3),
    }
    proj = {
        ("u21", 1): _ortho_conj(h31 @ pre[key3]),
        (key3, 1): _ortho_conj(h21 @ pre["u21"]),
    }
    if 2 in receivers3:
        proj[(key3, 2)] = np.eye(t3, dtype=np.complex128)
    messages = (
        SchemeMessage("u21", 2, (1,), t2),
        SchemeMessage(key3, 3, receivers3, t3),
    )
    return messages, pre, proj


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


def _scheme_matrix(table, key, rows: int, cols: int | None, what: str) -> np.ndarray:
    """table[key], refused unless it is a numeric 2-D array with `rows` rows
    (and `cols` columns when given)."""
    try:
        mat = table[key]
    except (KeyError, TypeError):
        raise InvalidInputError(f"scheme has no {what} for {key!r}") from None
    if isinstance(mat, np.ndarray) and mat.ndim == 2 and mat.dtype.kind in "iufc":
        n, k = mat.shape
        if n == rows and (cols is None or k == cols):
            return mat
    want = f"({rows}, {'any' if cols is None else cols})"
    got = f"{type(mat).__name__} of shape {getattr(mat, 'shape', None)}, dtype {getattr(mat, 'dtype', None)}"
    raise InvalidInputError(f"{what} for {key!r} must be a numeric array of shape {want}, got {got}")


def _check_scheme(scheme: SchemeInstance, channels: ChannelSet) -> None:
    """Refuse anything but a SchemeInstance with the channels it was built on."""
    if not isinstance(scheme, SchemeInstance):
        raise InvalidInputError(f"expected a SchemeInstance, got {type(scheme).__name__}")
    _check_channels(scheme.split, channels, scheme.extension_factor)


def _check_scheme_matrices(scheme: SchemeInstance) -> None:
    """Refuse, before any arithmetic, a precoder or projector that is missing,
    misshapen or not finite. A precoder must be (transmit antennas) x
    (streams) and a projector needs one row per receive antenna; finiteness
    is one check over all of them."""
    split, flat = scheme.split, []
    for m in scheme.messages:
        flat.append(_scheme_matrix(scheme.precoders, m.key, split.tx_of(m.tx).numerator, m.dim, "precoder").ravel())
        for r in m.receivers:
            q = _scheme_matrix(scheme.projectors, (m.key, r), split.rx_of(r).numerator, None, "projector")
            flat.append(q.ravel())
    if flat and not np.isfinite(np.concatenate(flat)).all():
        raise InvalidInputError("scheme precoders or projectors have non-finite entries")


def _singular_values(mats) -> dict[int, tuple[float, float]]:
    """(smax, smin) of each distinct matrix in `mats`, keyed by its id, which
    names it only while the caller keeps it alive. smax is the spectral norm,
    as `np.linalg.norm(., 2)` computes it, and 0.0 for an empty matrix.

    One batched SVD per (shape, dtype): stacking a real matrix with complex
    ones would change the LAPACK routine that takes its norm.
    """
    sv, groups = {}, {}
    for mat in mats:
        k = id(mat)
        if k not in sv:
            sv[k] = (0.0, 0.0)
            if mat.size:
                groups.setdefault((mat.shape, mat.dtype), []).append(mat)
    for group in groups.values():
        s = np.linalg.svd(np.array(group), compute_uv=False)
        sv.update(zip(map(id, group), zip(s[:, 0].tolist(), s[:, -1].tolist())))
    return sv


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
    return the sent symbols to roundtrip_tol relative error. Each tolerance
    must be a finite real >= 0, since a NaN or infinite one would pass every
    check. Failures mark the report invalid; nothing raises on a bad
    realization, only on malformed inputs: a missing, misshapen or
    non-finite precoder or projector. achieved_dof counts the streams of
    the pairs that passed (per receiver for the broadcast message), so a
    valid report always has achieved == claimed.

    A first pass collects every matrix whose singular values a check reads:
    each leak Q^H H' T' with its link and precoder, and each square
    effective matrix with its anchors H, T and Q. `_singular_values` takes
    them all in one batched SVD per (shape, dtype), each shared link and
    precoder once, and the checks read that table.
    """
    _check_scheme(scheme, channels)
    _check_scheme_matrices(scheme)
    tols = {"residual_tol": residual_tol, "condition_tol": condition_tol, "roundtrip_tol": roundtrip_tol}
    for name, tol in tols.items():
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise InvalidInputError(f"{name} must be a finite real >= 0, got {tol!r}")
    rng = generator(seed, SYMBOL_STREAM)
    symbols = {m.key: complex_gaussian(rng, m.dim, 1) for m in scheme.messages}
    tx, rx = scheme.split.integer_pairs()
    x = [np.zeros((t, 1), dtype=np.complex128) for t in tx]
    for m in scheme.messages:
        if m.dim > 0:
            x[m.tx - 1] = x[m.tx - 1] + scheme.precoders[m.key] @ symbols[m.key]
    y = receive(scheme.split, channels, x, [np.zeros((r, 1), dtype=np.complex128) for r in rx])

    # pass 1: every matrix a check reads, kept alive in `pairs` and `mats`
    pairs, mats = [], []
    for m in scheme.messages:
        for r in m.receivers:
            q = scheme.projectors[(m.key, r)]
            g, leaks = pair_matrices(scheme, channels, m, r, q)
            leaks = [(leak, channels.h(other.tx, r), scheme.precoders[other.key]) for other, leak in leaks]
            mats += [mat for leak in leaks for mat in leak]
            anchors = None
            if m.dim > 0 and g.shape[0] == g.shape[1]:
                anchors = (channels.h(m.tx, r), scheme.precoders[m.key], q)
                mats += [g, *anchors]
            pairs.append((m, r, g, leaks, anchors))
    sv = _singular_values(mats)

    # pass 2: the checks
    checks = []
    passed_streams = 0
    for m, r, g, leaks, anchors in pairs:
        fails = []
        worst = 0.0
        for leak, h, t in leaks:
            denom = sv[id(h)][0] * sv[id(t)][0]
            if denom > 0:
                worst = max(worst, sv[id(leak)][0] / denom)
        if worst > residual_tol:
            fails.append("interference")

        cond, rt = 0.0, float("nan")
        if m.dim > 0 and anchors is None:
            fails.append("effective-matrix-not-square")
        elif anchors is not None:
            h, t, q = anchors
            gmax, gmin = sv[id(g)]
            # scale anchors the test: a numerically zero G has a
            # perfect smin/smax ratio but has still lost rank
            scale = sv[id(h)][0] * sv[id(t)][0] * sv[id(q)][0]
            cond = gmin / gmax if gmax > 0 else 0.0
            if gmax <= condition_tol * scale:
                fails.append("rank-deficient")
            elif gmin <= condition_tol * gmax:
                fails.append("ill-conditioned")
            else:
                decoded = np.linalg.solve(g, q.conj().T @ y[r - 1])
                u = symbols[m.key]
                rt = float(np.linalg.norm(decoded - u) / np.linalg.norm(u))
                if rt > roundtrip_tol:
                    fails.append("roundtrip")

        if not fails:
            passed_streams += m.dim
        checks.append(MessageCheck(m.key, r, worst, cond, rt, passed=not fails, failures=tuple(fails)))

    failures = tuple(f"{c.message}@{c.receiver}:{f}" for c in checks for f in c.failures)
    achieved = Fraction(passed_streams, scheme.extension_factor)
    claimed = scheme.claimed_dof()
    if not failures and achieved != claimed:
        raise InternalError("all checks passed but achieved DoF differs from claimed")
    return VerificationReport(not failures, achieved, claimed, tuple(checks), failures)
