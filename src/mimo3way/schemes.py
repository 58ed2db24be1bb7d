"""Zero-forcing transmission schemes achieving the optimal DoF.

One builder, `build_scheme`, runs one zero-forcing rule on each scheme's
table of messages (key, transmitter, receivers). A message is precoded into
the null space of its link to the node that its transmitter's other message
goes to, where it then lands silently, or into square orthonormal streams
when its transmitter sends no other. A receiver reads each message in the
complement of the image of the other message meant for it, or through an
identity projector where there is none. uni-a needs m1 <= m2+m3 and 3
antennas per node after any symbol extension, uni-b needs m1 >= m2+m3.

A built scheme is the full matrix-level description (precoders per message,
projectors per message/receiver pair); `verify_scheme` replays a zero-noise
transmission and checks interference leakage, conditioning, and exact
decodability, reporting failures instead of raising. What it reads of a
scheme, and which of those matrices take one batched SVD together, is
planned once per split, message list, projector width and dtype (`_Plan`).

Construction and checks run on a leading trial axis: `rates.estimate_dof`
builds a block of trials on channels stacked by `channel._draw`, one seed a
trial, with one QR per random precoder, one SVD per null space and one solve
per pair for the block. It keeps only verdicts (`_passed`): the effective
matrices take an SVD, and bounds by largest entries settle the other checks
or the exact checks run (`_verify`). `build_scheme` and `verify_scheme` are
the one-trial case; each trial's draws, bits and verdict are those it gets alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .allocation import Regime, canonical_split
from .channel import _PAIR_SLOT, NODES, PAIR_ORDER, AntennaConfig, AntennaSplit, ChannelSet, _receive
from .errors import InvalidInputError, RegimeError, instance
from .linalg import PRECODER_STREAM, SYMBOL_STREAM, _gaussians, _null_basis, _orthonormal, _solve, _svdvals
from .rational import frac_str

__all__ = [
    "SchemeTag",
    "SchemeMessage",
    "SchemeInstance",
    "MessageCheck",
    "VerificationReport",
    "scheme_split",
    "build_scheme",
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


@dataclass(frozen=True, eq=False)
class SchemeInstance:
    """A fully built scheme for one channel realization.

    `split` and all matrices live in the symbol-extended system (antenna
    counts scaled by extension_factor); DoF accounting divides back down.
    `build_scheme` seals it, read-only like a ChannelSet; rate calls then
    reuse its SNR-free terms per (channels, ablation seed). Like a
    ChannelSet, it compares and hashes by identity (eq=False).
    """

    tag: SchemeTag
    config: AntennaConfig
    split: AntennaSplit
    extension_factor: int
    messages: tuple[SchemeMessage, ...]
    precoders: Mapping[str, np.ndarray] = field(repr=False)
    projectors: Mapping[tuple[str, int], np.ndarray] = field(repr=False)

    def tx_streams(self, node: int) -> int:
        """Total streams transmitted by `node` (extended system)."""
        return self._checks.tx_streams(node)

    def claimed_dof(self) -> Fraction:
        return Fraction(sum(m.dim * m.weight for m in self.messages), self.extension_factor)

    @functools.cached_property
    def _checks(self) -> "_Plan":  # cached: every check and rate asks for the plan
        try:
            return _plan(self.split, self.messages)
        except (TypeError, AttributeError):  # unhashable, or a field of the wrong type
            raise InvalidInputError(f"scheme messages must be SchemeMessages, got {self.messages!r}") from None


_SCHEME_REGIME = {SchemeTag.UNI_A: Regime.BALANCED, SchemeTag.UNI_B: Regime.HUB, SchemeTag.BCAST: Regime.BROADCAST}


def scheme_split(config: AntennaConfig, tag: SchemeTag) -> tuple[AntennaSplit, int]:
    """Integer antenna split and symbol-extension factor for a scheme.

    The returned split is the canonical optimal split of the scheme's regime
    scaled by the extension factor (1 when the split is already integral,
    else 3): channels must be drawn at exactly this split.
    """
    instance(config, AntennaConfig)
    return _scheme_split(config, instance(tag, SchemeTag))


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
    if instance(channels, ChannelSet).split is not split and channels.split != split:
        raise InvalidInputError(
            f"channels drawn for split {channels.split.to_json()} but the scheme needs "
            f"{split.to_json()} (extension factor {ext}); draw channels at the extended split"
        )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned of
def _ortho_conj(link: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of range(link @ pre),
    for each matrix of a stack."""
    mat = (link @ pre).conj().mT
    if not np.isfinite(mat).all():
        raise InvalidInputError("a precoded link overflows float64")
    return _null_basis(mat)


def build_scheme(config: AntennaConfig, tag: SchemeTag, channels: ChannelSet, seed: int) -> SchemeInstance:
    """Build scheme `tag` on `channels`, drawn at `scheme_split(config, tag)`;
    random precoders come from the precoder stream of `seed`. The result is
    sealed: read-only arrays in read-only maps (no deepcopy or pickle), so rate
    calls keep its SNR-free terms per (channels, ablation seed)."""
    split, ext = scheme_split(config, tag)
    _check_channels(split, channels, ext)
    scheme = _build(config, tag, ext, channels, [seed])
    for name in ("precoders", "projectors"):
        for mat in getattr(scheme, name).values():
            mat.setflags(write=False)
        object.__setattr__(scheme, name, MappingProxyType(getattr(scheme, name)))
    object.__setattr__(scheme, "_memo", None)  # sealed; `rates._one_point` reads it, the rate calls fill it
    return scheme


def _build(config: AntennaConfig, tag: SchemeTag, ext: int, channels: ChannelSet, seeds) -> SchemeInstance:
    """`build_scheme` on channels drawn at `scheme_split(config, tag)`, which
    is (channels.split, ext), with one seed per trial: 2-D links and one
    seed, or links stacked on a leading trial axis and one seed per trial,
    in which case every precoder and projector is stacked on that axis too.

    One zero-forcing rule (`_rule`) builds every scheme from its message
    table: a message is precoded into the null space of its link to the node
    where it is silent, else into square orthonormal streams drawn in message
    order; a receiver reads it in the complement of the image of the other
    message meant there, else through an identity projector."""
    split, messages = channels.split, _messages(channels.split, tag)
    links, lead = channels.matrices, channels.matrices[0].shape[:-2]
    (silent, reads), rx = _rule(tag), split.integer_pairs()[1]
    draws = iter(_gaussians(seeds, PRECODER_STREAM, [m.dim**2 for m, node in zip(messages, silent) if node is None]))
    pre, proj = {}, {}
    for m, node in zip(messages, silent):
        if node is None:
            pre[m.key] = _orthonormal(next(draws).reshape(lead + (m.dim, m.dim)))
        else:
            pre[m.key] = _null_basis(links[_PAIR_SLOT[m.tx, node]])
    for key, r, other, other_tx in reads:
        if other is None:
            proj[key, r] = np.tile(np.eye(rx[r - 1], dtype=np.complex128), lead + (1, 1))
        else:
            proj[key, r] = _ortho_conj(links[_PAIR_SLOT[other_tx, r]], pre[other])
    return SchemeInstance(tag, config, split, ext, messages, pre, proj)


# each scheme's messages as (key, transmitter, receivers), in message order
_MESSAGE_TABLE = {
    SchemeTag.UNI_A: (("u12", 1, (2,)), ("u13", 1, (3,)), ("u23", 2, (3,)), ("u32", 3, (2,))),
    SchemeTag.UNI_B: (("u21", 2, (1,)), ("u31", 3, (1,))),
    SchemeTag.BCAST: (("u21", 2, (1,)), ("u3bc", 3, (1, 2))),
}


# memoized: it reads only the table, and deriving it in each build cost about 5 us
@functools.cache
def _rule(tag: SchemeTag):
    """`_build`'s rule on a scheme's table: per message, the node where it is
    silent or None; per (message, receiver) pair, receiver by receiver, (key,
    receiver, key and transmitter of the other message meant there or None)."""
    table, silent, reads = _MESSAGE_TABLE[tag], [], []
    for key, tx, _ in table:
        (node,) = [r for k, t, receivers in table if t == tx and k != key for r in receivers] or [None]
        silent.append(node)
    for r in NODES:
        meant = [(key, tx) for key, tx, receivers in table if r in receivers]
        for key, _ in meant:
            (other,) = [o for o in meant if o[0] != key] or [(None, None)]
            reads.append((key, r, *other))
    return tuple(silent), tuple(reads)


# memoized: schemes built on one split share one message tuple, so their plan
# lookups compare it by identity
@functools.lru_cache(maxsize=256)
def _messages(split: AntennaSplit, tag: SchemeTag) -> tuple[SchemeMessage, ...]:
    """The scheme's message table with the stream counts of `_rule`: a
    message sends its transmitter's antennas, less the receive antennas of
    the node where it is silent."""
    (tx, rx), (silent, _) = split.integer_pairs(), _rule(tag)
    return tuple(SchemeMessage(key, t, receivers, tx[t - 1] - (0 if node is None else rx[node - 1]))
                 for (key, t, receivers), node in zip(_MESSAGE_TABLE[tag], silent))


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

    def to_json(self) -> dict:  # the fields in order, each as JSON takes it
        return {**vars(self), "roundtrip_error": None if math.isnan(self.roundtrip_error) else self.roundtrip_error,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    achieved_dof: Fraction
    claimed_dof: Fraction
    checks: tuple[MessageCheck, ...]
    failures: tuple[str, ...]

    def to_json(self) -> dict:  # the fields in order, each as JSON takes it
        return {**vars(self), "achieved_dof": frac_str(self.achieved_dof), "claimed_dof": frac_str(self.claimed_dof),
                "checks": [c.to_json() for c in self.checks], "failures": list(self.failures)}


# the dtypes numpy.linalg takes: integers (as float64), single and double
# precision; it refuses float16 and long double
_LINALG_TYPES = np.typecodes["AllInteger"] + "fdFD"


def _scheme_matrix(table, key, rows: int, cols: int | None, what: str, lead: tuple[int, ...] = ()) -> np.ndarray:
    """table[key], refused unless it is an array of shape lead + (rows,
    cols), at most `rows` columns when `cols` is None, of a dtype in
    _LINALG_TYPES."""
    try:
        mat = table[key]
    except (KeyError, TypeError):
        raise InvalidInputError(f"scheme has no {what} for {key!r}") from None
    if isinstance(mat, np.ndarray) and mat.ndim == len(lead) + 2 and mat.dtype.char in _LINALG_TYPES:
        shape = mat.shape
        if shape[:-2] == lead and shape[-2] == rows and (shape[-1] <= rows if cols is None else shape[-1] == cols):
            return mat
    want = f"{lead + (rows, f'<= {rows}' if cols is None else cols)} that numpy.linalg takes"
    got = f"{type(mat).__name__} of shape {getattr(mat, 'shape', None)}, dtype {getattr(mat, 'dtype', None)}"
    raise InvalidInputError(f"{what} for {key!r} must be a numeric array of shape {want}, got {got}")


class _Plan:
    """What the checks of a scheme read, from its split and messages alone:
    `shapes` of (is projector, key, rows, columns or None for <= rows, name) in
    checking order, where message k's precoder (pre_at[k]) and pair p's
    projector (proj_at[p]) sit in it, the pairs (message index, message,
    receiver, link slot) in report order, and the interferers of each
    (message key, receiver) as (message index, link slot), which
    `rates._layout` reads too, with each sender's `tx_streams`."""

    def __init__(self, split: AntennaSplit, messages: tuple[SchemeMessage, ...]):
        self.split, self.messages = split, messages
        self.shapes, self.pairs, self.pre_at, self.proj_at = [], [], [], []
        for k, m in enumerate(messages):
            self.pre_at.append(len(self.shapes))
            self.shapes.append((False, m.key, split.tx_of(m.tx).numerator, m.dim, "precoder"))
            for r in m.receivers:
                self.proj_at.append(len(self.shapes))
                self.shapes.append((True, (m.key, r), split.rx_of(r).numerator, None, "projector"))
                if m.tx == r:
                    raise InvalidInputError(f"message {m.key!r} is received at its own transmitter, node {r}")
                self.pairs.append((k, m, r, _PAIR_SLOT[m.tx, r]))
        self.leaks = {
            (m.key, r): [(o, _PAIR_SLOT[other.tx, r]) for o, other in enumerate(messages)
                         if other.key != m.key and other.tx != r and other.dim > 0]
            for _, m, r, _ in self.pairs
        }
        self.receivers = sorted({r for _, _, r, _ in self.pairs})

    def tx_streams(self, node: int) -> int:
        return sum(m.dim for m in self.messages if m.tx == node)

    @functools.lru_cache(maxsize=256)
    def layout(self, kinds: tuple):
        """How `_verify` forms and reads a scheme's matrices when the checked
        ones have the columns and dtype numbers `kinds`, in turn (a projector
        may have any width). A matrix is named by its position among the
        links in PAIR_ORDER, the checked matrices and the products Q^H H T
        made pair by pair: per pair (Q, ((link, precoders), ...)), one Q^H H
        per link, G first when it is square, and no empty product. Returns
        the products; the positions of each (shape, dtype), one batched SVD
        each, whose largest singular values fill rows 1, 2, ... of a table
        and whose smallest follow all the largest (row 0 holds zeros, for
        empty matrices); per pair, the rows of each leak, its link and its
        precoder; and per pair the rows of G, H, T, Q and of G's smallest
        singular value and the position of G, or None where G is not
        square."""
        tx, rx = self.split.integer_pairs()
        c128 = np.dtype(np.complex128).num
        kind = [((rx[j - 1], tx[i - 1]), c128) for i, j in PAIR_ORDER]
        kind += [((shape[2], cols), num) for shape, cols, num in zip(self.shapes, kinds[::2], kinds[1::2])]
        pre, products, leaks, anchors = [len(PAIR_ORDER) + at for at in self.pre_at], [], [], []
        for p, (k, m, r, link) in enumerate(self.pairs):
            q = len(PAIR_ORDER) + self.proj_at[p]
            width = kind[q][0][1]
            square = m.dim > 0 and width == m.dim
            steps, made = {}, {}
            for o, lk in ([(k, link)] if square else []) + (self.leaks[m.key, r] if width else []):
                steps.setdefault(lk, []).append(o)
            for o in [o for os in steps.values() for o in os]:
                made[o] = len(kind)
                kind.append(((width, self.messages[o].dim), c128))
            products.append((q, tuple((lk, tuple(pre[o] for o in os)) for lk, os in steps.items())))
            leaks.append([(made[o], lk, pre[o]) for o, lk in self.leaks[m.key, r] if o in made])
            anchors.append((made[k], link, pre[k], q) if square else None)
        groups = {}
        for pos in [pos for pair in leaks for leak in pair for pos in leak] + [pos for a in anchors if a for pos in a]:
            if 0 not in kind[pos][0]:
                groups.setdefault(kind[pos], {})[pos] = None
        groups = tuple(tuple(members) for members in groups.values())
        row = {pos: i for i, pos in enumerate((pos for members in groups for pos in members), 1)}
        leaks = tuple(tuple(tuple(row.get(pos, 0) for pos in leak) for leak in pair) for pair in leaks)
        anchors = tuple(a and (*(row.get(pos, 0) for pos in a), row[a[0]] + len(row), a[0]) for a in anchors)
        return tuple(products), groups, leaks, anchors


# memoized like _scheme_split: one plan per (config, tag) for built schemes
@functools.lru_cache(maxsize=256)
def _plan(split: AntennaSplit, messages: tuple[SchemeMessage, ...]) -> _Plan:
    return _Plan(split, messages)


def _check_scheme_matrices(scheme: SchemeInstance, channels: ChannelSet, lead: tuple[int, ...] = ()):
    """The one gate of a (scheme, channels) pair: refuse, before any
    arithmetic, a scheme that is no SchemeInstance, channels not drawn at its
    split, and a missing, misshapen or non-finite precoder or projector;
    returns the plan and the checked matrices in the order of its `shapes`.
    A precoder must be (transmit antennas) x (streams) and a projector
    (receive antennas) x (at most as many), behind the trial axes `lead`; a
    null space of non-generic rank fails here, as a precoder with extra columns."""
    _check_channels(instance(scheme, SchemeInstance).split, channels, scheme.extension_factor)
    plan = scheme._checks
    mats = [
        _scheme_matrix(scheme.projectors if proj else scheme.precoders, key, rows, cols, what, lead)
        for proj, key, rows, cols, what in plan.shapes
    ]
    if mats and not np.isfinite(np.concatenate([mat.ravel() for mat in mats])).all():
        raise InvalidInputError("scheme precoders or projectors have non-finite entries")
    return plan, mats


_RESIDUAL_TOL, _CONDITION_TOL, _ROUNDTRIP_TOL = 1e-10, 1e-8, 1e-8


def verify_scheme(scheme: SchemeInstance, channels: ChannelSet, *, seed: int = 0) -> VerificationReport:
    """Replay a zero-noise transmission and check the scheme end to end at fixed tolerances.

    Per (message, receiver) pair: interference from every other visible
    message must project to a relative residual <= 1e-10; the effective
    matrix Q^H H T must be square, with smax > 1e-8 * smax(Q) smax(H)
    smax(T) and smin > 1e-8 * smax; and solving it must return the sent
    symbols to 1e-8 relative error. Failures mark the report invalid;
    nothing raises on a bad realization, only on malformed inputs: a
    missing, misshapen or non-finite precoder or projector, or one that
    makes a projected link or the received signal overflow. achieved_dof
    counts the streams of the pairs that passed (per receiver for the
    broadcast message), so a valid report always has achieved == claimed.
    """
    plan, mats = _check_scheme_matrices(scheme, channels)
    checks = [MessageCheck(m.key, r, worst, cond, rt, passed=not fails, failures=tuple(fails))
              for m, r, ((worst, cond, rt, fails),) in _verify(scheme, channels, [seed], plan, mats)]
    failures = tuple(f"{c.message}@{c.receiver}:{f}" for c in checks for f in c.failures)
    achieved = Fraction(sum(m.dim for (_, m, _, _), c in zip(plan.pairs, checks) if c.passed), scheme.extension_factor)
    return VerificationReport(not failures, achieved, scheme.claimed_dof(), tuple(checks), failures)


def _passed(scheme: SchemeInstance, channels: ChannelSet, seeds) -> np.ndarray:
    """`verify_scheme`'s verdict on each trial of a scheme and channels stacked
    on one trial axis, `seeds[k]` the symbol seed of trial k, raising as it does."""
    pairs = _verify(scheme, channels, seeds, *_check_scheme_matrices(scheme, channels, (len(seeds),)), verdicts=True)
    return np.array([not any(trials[k][3] for *_, trials in pairs) for k in range(len(seeds))], dtype=bool)


def _verify(scheme, channels, seeds, plan, mats, verdicts=False):
    """The checks of `verify_scheme` on a 2-D scheme, channels and seed, or
    on ones stacked on a leading trial axis, `seeds[k]` the seed of trial k;
    `plan` and `mats` as `_check_scheme_matrices` returns them. Returns per
    (message, receiver) pair (message, receiver, trials), one (worst
    interference residual, condition ratio, roundtrip error, failures) a trial.

    The plan's layout says which products Q^H H T to form and where each
    matrix a check reads goes; a non-finite product or received signal is
    refused before any SVD. Each (shape, dtype) group takes one batched SVD,
    each link and precoder once, into a table of singular values that the
    checks read by the layout's rows. Each pair solves once, over the trials
    that passed conditioning (a batched solve raises on a singular member).

    With `verdicts`, only the failures hold: only the G matrices take an SVD,
    and bounds lo = max|x| <= smax(X) <= sqrt(rows cols) lo = hi (Golub & Van
    Loan, 2.3), each lo of a link, precoder or projector within 2^+-300, settle
    interference and rank in every trial with a factor 2 to spare for LAPACK's
    error in smax, or the exact checks run; a skipped SVD cannot fail to converge.
    """
    kinds = tuple(x for mat in mats for x in (mat.shape[-1], mat.dtype.num))
    products, groups, leak_rows, anchor_rows = plan.layout(kinds)
    n, lead = len(seeds), channels.matrices[0].shape[:-2]
    symbols = _gaussians(seeds, SYMBOL_STREAM, [m.dim for m in plan.messages])  # message k: (trials, streams)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # log2(0) is -inf
        tx, rx = scheme.split.integer_pairs()
        x = [np.zeros(lead + (t, 1), dtype=np.complex128) for t in tx]
        for (k, m), at in zip(enumerate(plan.messages), plan.pre_at):
            if m.dim > 0:
                x[m.tx - 1] = x[m.tx - 1] + mats[at] @ symbols[k].reshape(lead + (m.dim, 1))
        zs = [np.zeros(lead + (rx[r - 1], 1), dtype=np.complex128) for r in plan.receivers]
        y = dict(zip(plan.receivers, _receive(channels, x, zs, plan.receivers)))

        # the products Q^H H T, each Q^H H once
        found, qhs = [*channels.matrices, *mats], []
        for q, steps in products:
            qhs.append(found[q].conj().mT)
            for link, pres in steps:
                qh_h = qhs[-1] @ found[link]
                found += [qh_h @ found[t] for t in pres]
        made = [mat.ravel() for mat in found[len(PAIR_ORDER) + len(mats) :]] + [yr.ravel() for yr in y.values()]
        if made and not np.isfinite(np.concatenate(made)).all():
            raise InvalidInputError("a projected link or received signal overflows float64")
        gs = {a[5] for a in anchor_rows if a} if verdicts else None  # where the G matrices are
        smax, smin = [np.zeros((1, n))], []  # row 0: empty matrices
        for members in groups:
            stack = np.array([found[pos] for pos in members]) if len(members) > 1 else found[members[0]][None]
            if gs is None:
                s = _svdvals(stack).reshape(len(members), n, -1)
            else:  # max|x| <= smax <= sqrt(rows cols) max|x|, for all but the G members
                s = np.abs(stack).max(axis=(-2, -1))[..., None].repeat(2, -1)
                if at := [i for i, pos in enumerate(members) if pos in gs]:
                    s[at] = _svdvals(stack[at]).reshape(len(at), n, -1)[..., [0, -1]]
            smax.append(s[..., 0])
            smin.append(s[..., -1])
        if gs is not None:  # unless the bounds settle interference and rank with a factor 2 to spare, check exactly
            lo = np.concatenate(smax)
            hi = lo * np.sqrt([0] + [math.prod(found[p].shape[-2:]) for ps in groups for p in ps])[:, None]
            leak, link, pre = np.array([row for pair in leak_rows for row in pair], dtype=np.intp).reshape(-1, 3).T
            g, h, t, q = np.array([a[:4] for a in anchor_rows if a], dtype=np.intp).reshape(-1, 4).T
            if not ((2 * hi[leak] < _RESIDUAL_TOL * lo[link] * lo[pre]).all()
                    and (2 * _CONDITION_TOL * hi[h] * hi[t] * hi[q] < lo[g]).all()
                    and (abs(np.log2(lo[np.concatenate([link, pre, h, t, q])])) < 300).all()):  # products stay normal
                return _verify(scheme, channels, seeds, plan, mats)
            leak_rows = [()] * len(leak_rows)  # settled: every trial passes interference, and only failures hold
        sv = np.concatenate(smax + smin).tolist()

        results = []
        for (k, m, r, _), qh, leaks, anchors in zip(plan.pairs, qhs, leak_rows, anchor_rows):
            trials, decode = [], []
            for j in range(n):
                fails = []
                worst = 0.0  # a NaN ratio leaves it as it is
                for leak, link, pre in leaks:
                    denom = sv[link][j] * sv[pre][j]
                    if denom > 0:
                        worst = max(worst, sv[leak][j] / denom)
                if worst > _RESIDUAL_TOL:
                    fails.append("interference")
                cond = 0.0
                if anchors is None:
                    if m.dim > 0:
                        fails.append("effective-matrix-not-square")
                else:
                    # scale anchors the test: a numerically zero G has a
                    # perfect smin/smax ratio but has still lost rank; a NaN
                    # fails both tests
                    g, h, t, q, low, _ = anchors
                    gmax, gmin = sv[g][j], sv[low][j]
                    cond = gmin / gmax if gmax > 0 else 0.0
                    if not gmax > _CONDITION_TOL * (sv[h][j] * sv[t][j] * sv[q][j]):
                        fails.append("rank-deficient")
                    elif not gmin > _CONDITION_TOL * gmax:
                        fails.append("ill-conditioned")
                    else:
                        decode.append(j)
                trials.append([worst, cond, math.nan, fails])

            if decode:
                g, qy, u = found[anchors[5]], qh @ y[r], symbols[k]
                if len(decode) < n:  # a stack: keep the trials that passed
                    g, qy, u = g[decode], qy[decode], u[decode]
                # np.linalg.norm(d - u) / np.linalg.norm(u) per trial, bit for bit: its dot products, one vecdot each
                d = _solve(g, qy).reshape(u.shape) - u
                d, u = (np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)) for v in (d, u))
                for j, rt in zip(decode, (d / u).tolist()):
                    trials[j][2] = rt
                    if not rt <= _ROUNDTRIP_TOL:
                        trials[j][3].append("roundtrip")
            results.append((m, r, trials))
    return results
