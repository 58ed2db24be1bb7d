"""Monte-Carlo sum-rate simulation and DoF slope estimation.

At high SNR the sum rate of a valid zero-forcing scheme grows like
(achieved DoF) * log2(snr), so the slope of mean sum rate against log2(snr)
between the top grid points estimates the DoF. Per-message transmit power is
the node budget split evenly over its streams; the broadcast message counts
once per receiver (decoding must succeed at both, so its rate is the minimum
over receivers); rates are divided by the symbol-extension factor to land in
bits per channel use. A (message, receiver) pair rates log2 det(I + snr A A^H)
- log2 det(I + snr B B^H), A = [G / sqrt(d) | leaks / sqrt(d') ...], B the
leaks alone at A's shape, G zeroed (zero-forcing: A = G / sqrt(d), no B). As
log det(I + snr A A^H) is the sum of log(1 + snr s) over A's squared singular
values s (Telatar, 1999), `_terms` takes those once, one batched SVD a matrix
shape over every pair and trial, and `_rates` is the one kernel of each SNR: a
log1p of snr times the values, summed per pair. The one refusal is overflow,
at every SNR whose product with the largest value is not finite: an up-set
of SNRs fixed by the SNR-free terms.

`build_scheme`'s schemes are read-only like a ChannelSet, so `sum_rate` and
`ablated_sum_rate` keep on one, for the channels (by identity) last rated and
up to five keys (None, or an ablation seed), `_terms`' form, all they compute
before the SNR: a warm call runs `_rates` alone, with the bits of a one-point
grid. The random projectors, drawn in one batch, ignore the SNR, channels and
scheme matrices.

`estimate_dof` runs its trials in blocks of at least `_BLOCK` trials, as large
as `_BLOCK_ENTRIES` allows: a block draws, builds, verifies (an SVD for the
effective matrices alone) and rates (one `(trials, grid)` pass) on a leading
trial axis, one LAPACK call per matrix role or shape, not per trial. Each
trial keeps its own seed and generators, so every draw, verdict and rate is
the one a trial-by-trial loop gets.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import AntennaConfig, AntennaSplit, ChannelSet, _draw
from .errors import InternalError, InvalidInputError, instance, integer, real, sequence
from .linalg import ABLATION_STREAM, TRIAL_STREAM, _gaussians, _MixedRank, _orthonormal, _states, _svdvals
from .rational import frac_str
from .schemes import SchemeInstance, SchemeTag, _build, _check_scheme_matrices, _messages, _passed, scheme_split

__all__ = ["SlopeEstimate", "sum_rate", "ablated_sum_rate", "estimate_dof"]

_LN2 = math.log(2.0)

# Most trials estimate_dof runs: about 6 s on the mc-slope configs, 46 s at (7,6,5) uni-a, on a 25-point grid
_MAX_TRIALS = 100_000

# Trials per stacked draw/build/verify/rate pass of estimate_dof: at least _BLOCK, else as many as keep a block's
# weight within 2**17, a trial weighing its link entries (N_i N_j over ordered node pairs of the extended split) and
# its log1p table (grid points x the pairs' stream counts). A block peaks at 1 to 5 times its weight (tracemalloc,
# 10 configs from (4,2,1) uni-b to (30,20,10) uni-a), at most about 10 MiB.
_BLOCK, _BLOCK_ENTRIES = 10, 2**17

# Most trials x grid points x pairs x n^2 of estimate_dof at _BLOCK trials, n the stream count whose pairs weigh
# most, and most trials x grid points (the (trials, grid) rate table, 32 MiB), checked before any draw: a pair's
# log1p table holds n <= n^2 values a trial and grid point.
_MAX_GRAM_ENTRIES = 2**22

_MAX_GRID = 4096  # most points of estimate_dof's SNR grid; its slope reads the top two, or the top half

# Most trials x N^3 estimate_dof runs, N the most antennas at a node of the
# extended split, checked before any draw: about 35 s at 4 ns a unit (uni-b).
_MAX_WORK = 2**33


@functools.lru_cache(maxsize=256)  # one layout per plan, projector widths, kind of rate and trial axes
def _layout(plan, widths: tuple, ablated: bool, axes: int):
    """How `_terms` forms and reads the matrices of a scheme on `axes` trial axes whose pairs' projectors have
    `widths` columns, from its plan alone. Returns, per pair with streams, (message key, receiver, link, and if
    `ablated` each leak's (message key, link)); per matrix shape, the positions of its members in pair order (A, then
    B if `ablated`) and their columns' scales, 1 / sqrt(d) a column of a message whose sender sends d streams and 0
    for G's columns in B; per pair, the slices of A's and B's values (no B: empty) in the shapes' stacked values; and
    per message with streams, [weight, first pair, one past its last pair]."""
    pairs, shapes, scales, messages, groups, where, at = [], [], [], {}, {}, {}, 0
    root = {m.tx: 1 / math.sqrt(plan.tx_streams(m.tx)) for m in plan.messages if m.dim}
    for (k, m, r, link), width in zip(plan.pairs, widths):
        if m.dim:
            messages.setdefault(k, [m.weight, len(pairs), 0])[2] = len(pairs) + 1
            leaks = [(plan.messages[o], lk) for o, lk in plan.leaks[m.key, r]] if ablated else []
            pairs.append((m.key, r, link, [(o.key, lk) for o, lk in leaks]))
            rest = [root[o.tx] for o, _ in leaks for _ in range(o.dim)]
            scales += [[root[m.tx]] * m.dim + rest, [0.0] * m.dim + rest] if ablated else [[root[m.tx]] * m.dim]
            shapes += [(width, m.dim + len(rest))] * (1 + ablated)
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    for (rows, cols), members in groups.items():  # a shape's values follow the last shape's, member by member
        k = min(rows, cols)
        where.update((i, slice(at + j * k, at + j * k + k)) for j, i in enumerate(members))
        at += len(members) * k
    stacks = [(members, np.reshape([scales[i] for i in members], (len(members),) + (1,) * (axes + 1) + (-1,)))
              for members in groups.values()]
    spans = [(where[i], where[i + 1] if ablated else slice(0)) for i in range(0, len(shapes), 1 + ablated)]
    return pairs, stacks, spans, list(messages.values())


def _terms(scheme: SchemeInstance, channels: ChannelSet, seed: int | None = None):
    """What the (message, receiver) pairs with streams rate before the SNR, as `_rates` reads it: (each pair's (A, B)
    slices of `s`, each message's [weight, pairs' range], s, the largest of s, or 0). A pair's A is G = Q^H H T over
    sqrt(d) beside, ablated at `seed` (random Q in sorted key order), each leak Q^H H' T' of the plan over sqrt(d'), a
    divisor being its sender's `tx_streams`; B is A with G zeroed, and zero-forcing has none. s stacks the squared
    singular values of every A and B on the trial axes, one batched SVD a matrix shape, inf if a member overflowed."""
    plan, links, proj, pre = scheme._checks, channels.matrices, scheme.projectors, scheme.precoders
    if seed is not None:  # random_orthonormal key by key from generator(seed, ABLATION_STREAM), one QR a shape
        keys = sorted((m.key, r) for m in scheme.messages for r in m.receivers)
        shapes = [proj[k].shape for k in keys]
        draws, proj = _gaussians([seed], ABLATION_STREAM, [rows * cols for rows, cols in shapes]), {}
        for shape in set(shapes):
            at = [i for i, s in enumerate(shapes) if s == shape]
            proj.update(zip([keys[i] for i in at], _orthonormal(np.stack([draws[i].reshape(shape) for i in at]))))
    widths = tuple([proj[m.key, r].shape[-1] for _, m, r, _ in plan.pairs])
    pairs, groups, spans, messages = _layout(plan, widths, seed is not None, links[0].ndim - 2)
    mats, parts = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused at every SNR
        for key, r, link, leaks in pairs:
            qh = proj[key, r].conj().mT
            a = qh @ links[link] @ pre[key]
            if seed is not None:  # G beside its leaks, for A and for B, whose scales differ
                a = np.concatenate([a, *[qh @ links[lk] @ pre[o] for o, lk in leaks]], axis=-1)
            mats += [a, a] if seed is not None else [a]
        for members, scale in groups:
            stack = np.array([mats[i] for i in members]) * scale
            try:  # unknown values, of an overflowed product or that LAPACK cannot converge to, are inf
                sv = _svdvals(stack) if np.isfinite(stack).all() else None
            except np.linalg.LinAlgError:
                sv = None
            if sv is None:
                sv = np.full(stack.shape[:-2] + (min(stack.shape[-2:]),), math.inf)
            parts.append(sv.swapaxes(0, -2).reshape(*sv.shape[1:-1], -1))  # (trials..., members x values)
        s = np.concatenate(parts or [np.zeros(0)], axis=-1) ** 2
    return spans, messages, s, float(s.max(initial=0.0))


def _rates(form, snrs):
    """The sum rate of a `_terms` form before the extension factor, at `snrs`: a float, or a (grid,) array for
    (trials..., grid) rates. Refused at the first SNR whose product with the largest value is not finite; else a pair
    rates log2 det(I + snr A A^H) - log2 det(I + snr B B^H), the sum of log1p(snr s) / ln 2 over A's values s less
    the same over B's, from 0 in column order (one log1p over all values); from 0 in message order a message adds
    its weight times its least rate over receivers. A float's rate is a one-point grid's, bit for bit."""
    spans, messages, s, top = form
    if isinstance(snrs, float):  # Python numbers past the log1p: 4 to 6 times faster than numpy on a one-point grid
        if not math.isfinite(snrs * top):
            raise InvalidInputError(f"snr_linear {snrs} overflows the rate Gram matrix")
        logs, lowest = np.log1p(snrs * s).tolist(), min
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(snrs * top)
        if bad.any():
            raise InvalidInputError(f"snr_linear {float(snrs[bad.argmax()])} overflows the rate Gram matrix")
        logs = list(np.moveaxis(np.log1p(s[..., None, :] * snrs[:, None]), -1, 0))  # a (trials..., grid) a column
        lowest = functools.partial(functools.reduce, np.minimum)
    bits = [functools.reduce(operator.add, logs[a], 0.0) / _LN2 - functools.reduce(operator.add, logs[b], 0.0) / _LN2
            for a, b in spans]
    total = 0.0
    for weight, first, end in messages:
        total += weight * lowest(bits[first:end])
    return total


def _sum_rates(scheme: SchemeInstance, channels: ChannelSet, snrs) -> np.ndarray:
    """Zero-forcing sum rate in bits per channel use at each SNR of a grid, (grid,) or (trials, grid) on a trial axis:
    `_rates` on `_terms`, over the extension factor."""
    snrs = np.asarray(snrs, dtype=float)
    if not (snrs > 0).all():
        raise InvalidInputError(f"snr_linear must be > 0, got {float(snrs[np.argmin(snrs > 0)])}")
    return _rates(_terms(scheme, channels), snrs) / scheme.extension_factor


def _one_point(scheme: SchemeInstance, channels: ChannelSet, snr_linear, seed, ablated: bool) -> float:
    """`sum_rate`, or `ablated_sum_rate` at `seed`: `_rates` at one SNR on the `_terms` form a sealed scheme keeps."""
    snr_linear = real(snr_linear, "snr_linear")
    memo = instance(scheme, SchemeInstance).__dict__.get("_memo", False)  # None sealed and unrated, False unsealed
    kept = memo[1] if memo and memo[0] is channels else {}
    if not kept:
        _check_scheme_matrices(scheme, channels)
    if not (snr_linear > 0):
        raise InvalidInputError(f"snr_linear must be > 0, got {snr_linear}")
    key = integer(seed, "seed") if ablated else None
    form = kept.get(key) or _terms(scheme, channels, key)
    rate = _rates(form, snr_linear)
    if memo is not False and key not in kept:  # the call has its rate: keep its form, from this key again past five
        object.__setattr__(scheme, "_memo", (channels, {**kept, key: form} if len(kept) < 5 else {key: form}))
    return rate / scheme.extension_factor


def sum_rate(scheme: SchemeInstance, channels: ChannelSet, snr_linear: float) -> float:
    """Zero-forcing sum rate in bits per channel use at one SNR: each (message,
    receiver) pair contributes log2 det(I + rho G G^H), G the effective matrix
    after projection (`_sum_rates` on a one-point grid)."""
    return _one_point(scheme, channels, snr_linear, None, False)


def ablated_sum_rate(scheme: SchemeInstance, channels: ChannelSet, snr_linear: float, seed: int = 0) -> float:
    """Sum rate with the zero-forcing projectors knocked out.

    Replaces every projector by a random orthonormal basis of the same shape
    and treats the now-unsuppressed cross-talk as noise, i.e. each pair
    contributes log2 det(I + K + S) - log2 det(I + K) with S the signal and K
    the interference covariance after projection. At high SNR this saturates
    well below the zero-forcing rate whenever interference actually matters.

    The random projectors, one per projector key in sorted key order, depend
    only on `seed` and the projector shapes, not on the SNR, channels or
    scheme matrices: a sealed scheme draws them once per (channels, seed).
    """
    return _one_point(scheme, channels, snr_linear, seed, True)


@dataclass(frozen=True)
class SlopeEstimate:
    """Monte-Carlo DoF estimate from the high-SNR rate slope."""

    scheme: SchemeTag
    snr_db: tuple[float, ...]
    mean_rates: tuple[float, ...]
    slope: float
    theoretical_dof: Fraction
    abs_error: float
    trials: int
    invalid_trials: int
    fit: str

    def to_json(self) -> dict:  # the fields in order, each as JSON takes it
        return {**vars(self), "scheme": self.scheme.value, "snr_db": list(self.snr_db),
                "mean_rates": list(self.mean_rates), "theoretical_dof": frac_str(self.theoretical_dof)}


def _rate_block(config: AntennaConfig, tag: SchemeTag, split: AntennaSplit, ext: int, seeds, snrs):
    """Draw, build, verify and rate one block of trials, `seeds[k]` the seed of trial k: (scheme, which trials
    passed, (trials, grid) rates of all of them), each trial's as `draw_channels`, `build_scheme`, `verify_scheme`
    and `sum_rate` give it alone."""
    channels = _draw(split, seeds, (len(seeds),))
    scheme = _build(config, tag, ext, channels, seeds)
    return scheme, _passed(scheme, channels, seeds), _sum_rates(scheme, channels, snrs)


def estimate_dof(config: AntennaConfig, tag: SchemeTag, snr_grid_db=(30.0, 50.0), trials: int = 50, seed: int = 0,
                 fit: str = "two-point") -> SlopeEstimate:
    """Estimate achieved DoF of a scheme by simulation.

    Draws `trials` independent channels, builds and verifies the scheme on
    each (invalid draws are counted and skipped), averages sum rates over the
    SNR grid, and differences the top two grid points ("two-point", default)
    or least-squares fits the top half ("lsq-top-half"). The grid should top
    out at 30 dB or more for the slope to be in the DoF regime. Trials run in
    stacked blocks, with the results of a trial-by-trial loop.
    """
    grid = sequence(snr_grid_db, "snr grid must be a sequence of real dB values", _MAX_GRID)
    grid = tuple(real(s, "snr grid point") for s in grid)
    if len(grid) < 2:
        raise InvalidInputError("snr grid needs at least two points")
    if len(grid) > _MAX_GRID:
        raise InvalidInputError(f"snr grid has over {_MAX_GRID} points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError(f"snr grid must be strictly increasing, got {grid}")
    trials = integer(trials, "trials", 1, _MAX_TRIALS)
    if trials * len(grid) > _MAX_GRAM_ENTRIES:
        raise InvalidInputError(f"{trials} trials x {len(grid)} snr grid points is over the {_MAX_GRAM_ENTRIES} rates "
                                "estimate_dof keeps")
    if fit not in ("two-point", "lsq-top-half"):
        raise InvalidInputError(f"fit must be 'two-point' or 'lsq-top-half', got {fit!r}")
    seed = integer(seed, "seed")
    try:
        snr_linear = [10.0 ** (db / 10.0) for db in grid]
    except OverflowError:
        snr_linear = [math.inf]
    if not all(math.isfinite(s) and s > 0 for s in snr_linear):
        raise InvalidInputError(f"snr grid {grid} dB has a point with no finite positive linear value")

    split, ext = scheme_split(config, tag)
    dims = [m.dim for m in _messages(split, tag) for _ in m.receivers]  # each pair's stream count n
    n = max(dims, key=lambda d: dims.count(d) * d * d)  # the one whose pairs weigh most, n^2 a pair
    if min(trials, _BLOCK) * len(grid) * dims.count(n) * n * n > _MAX_GRAM_ENTRIES:
        raise InvalidInputError(
            f"{min(trials, _BLOCK)} trials x {len(grid)} snr grid points x {dims.count(n)} pairs x {n}^2 streams "
            f"is over the {_MAX_GRAM_ENTRIES} rate Gram entries estimate_dof stacks at once")
    largest, links = int(max(split.totals)), sum(split.totals) ** 2 - sum(t**2 for t in split.totals)  # N, link entries
    if trials * largest**3 > _MAX_WORK:
        raise InvalidInputError(
            f"{trials} trials x {largest}^3 antennas at the largest node is over the {_MAX_WORK} work budget")
    size = max(_BLOCK, _BLOCK_ENTRIES // (links + len(grid) * sum(dims)))
    rates, valid, ks = np.zeros((trials, len(grid))), np.zeros(trials, dtype=bool), np.arange(trials, dtype=np.uint64)
    for start in range(0, trials, size):
        block = slice(start, start + size)
        seeds = _states([seed] * len(ks[block]), (TRIAL_STREAM, ks[block]))[:, 0].tolist()  # keys (TRIAL_STREAM, k)
        try:
            scheme, valid[block], rates[block] = _rate_block(config, tag, split, ext, seeds, snr_linear)
        except _MixedRank:  # a null space of non-generic rank: the block goes one trial at a time
            for k, ts in zip(range(trials)[block], seeds):
                scheme, valid[k : k + 1], rates[k : k + 1] = _rate_block(config, tag, split, ext, [ts], snr_linear)
    theoretical = scheme.claimed_dof()
    if not valid.any():
        raise InternalError(f"all {trials} channel draws produced invalid schemes for {tag.value} on {config.totals}")
    mean_rates = rates[valid].mean(axis=0)

    log2_snr = np.array([db / 10.0 * math.log2(10.0) for db in grid])
    if fit == "two-point":
        slope = float((mean_rates[-1] - mean_rates[-2]) / (log2_snr[-1] - log2_snr[-2]))
    else:
        top = max(2, math.ceil(len(grid) / 2))
        slope = float(np.polyfit(log2_snr[-top:], mean_rates[-top:], 1)[0])

    return SlopeEstimate(scheme=tag, snr_db=grid, mean_rates=tuple(float(r) for r in mean_rates), slope=slope,
                         theoretical_dof=theoretical, abs_error=abs(slope - float(theoretical)), trials=trials,
                         invalid_trials=int(trials - valid.sum()), fit=fit)
