"""Monte-Carlo sum-rate simulation and DoF slope estimation.

At high SNR the sum rate of a valid zero-forcing scheme grows like
(achieved DoF) * log2(snr), so the slope of mean sum rate against log2(snr)
between the top grid points estimates the DoF. Per-message transmit power is
the node budget split evenly over its streams; the broadcast message counts
once per receiver (decoding must succeed at both, so its rate is the minimum
over receivers); rates are divided by the symbol-extension factor to land in
bits per channel use. A (message, receiver) pair's terms have one form, its
row of (divisor, Gram): the signal's, then, ablated, each leak's. A rate call
stacks the pairs by Gram size n, one batched slogdet a stack, which gives each
matrix the bits it gets alone; only to name an error is a pair rebuilt alone.

`build_scheme`'s schemes are read-only like a ChannelSet, so `sum_rate` and
`ablated_sum_rate` keep on one, for the channels (by identity) last rated and
up to five keys (None, or an ablation seed), all they compute before the SNR:
passed checks, each pair's divisors and Grams (Python complex numbers if 1x1)
and its place in the message sum. A warm call does the SNR's arithmetic alone,
in a grid's order and so with its bits. The random projectors, drawn in one
batch, ignore the SNR, channels and scheme matrices.

`estimate_dof` runs its trials in blocks of `_BLOCK` to `_POOLS` trials, as
large as its rate Gram stacks allow (`_BLOCK_ENTRIES`): a block draws, builds,
verifies (an SVD for the effective matrices alone) and rates (one `(trials,
grid)` pass) on a leading trial axis, one LAPACK call per matrix role, not per
trial. Each trial keeps its own seed and generators, so every draw, verdict
and rate is the one a trial-by-trial loop gets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import AntennaConfig, AntennaSplit, ChannelSet, _draw
from .errors import InternalError, InvalidInputError, instance, integer, real, sequence
from .linalg import _EPS, _POOLS, ABLATION_STREAM, TRIAL_STREAM, _gaussians, _MixedRank, _orthonormal, _slogdet, _states
from .rational import frac_str
from .schemes import SchemeInstance, SchemeTag, _build, _check_scheme_matrices, _messages, _passed, scheme_split

__all__ = ["SlopeEstimate", "sum_rate", "ablated_sum_rate", "estimate_dof"]

_LN2 = math.log(2.0)

# Most trials estimate_dof runs: about 6 s on the mc-slope configs, 46 s at (7,6,5) uni-a, on a 25-point grid
_MAX_TRIALS = 100_000

# Trials per stacked draw/build/verify/rate pass of estimate_dof: at least _BLOCK, else as many as keep its largest
# rate Gram stack within 1 MiB and at most _POOLS (whose pools linalg keeps for one-trial reruns), as a block costs
# about 1 ms besides 0.05 ms a trial at (3,3,3) uni-a (20 trials at (7,6,5) uni-a as 13 + 7 take about 12% longer).
_BLOCK, _BLOCK_ENTRIES = 10, 2**16

# Most entries in a complex (pairs, block trials, grid points, n, n) Gram
# stack of estimate_dof, of the pairs with Gram size n, checked at _BLOCK
# trials before any draw (a larger block holds at most _BLOCK_ENTRIES): 64 MiB
# at 16 bytes an entry; the pass holds one stack, and `_name_error` up to two
# more of a pair's size. It also bounds the (trials, grid) rate table, 32 MiB.
_MAX_GRAM_ENTRIES = 2**22

_MAX_GRID = 4096  # most points of estimate_dof's SNR grid; its slope reads the top two, or the top half

# Most trials x N^3 estimate_dof runs, N the most antennas at a node of the
# extended split, checked before any draw: about 35 s at 4 ns a unit (uni-b).
_MAX_WORK = 2**33


def _terms(scheme: SchemeInstance, channels: ChannelSet, seed: int | None = None):
    """What each (message, receiver) pair with streams rates before the SNR: (per message with streams its weight and
    its receivers' (n, row), rows by Gram size n). A row is (divisor, G G^H), G = Q^H H T, then, ablated at `seed`
    (random Q in sorted key order), (divisor, L L^H) of each leak L = Q^H H' T' of the plan, a divisor being its
    sender's `tx_streams`."""
    keys = sorted((m.key, r) for m in scheme.messages for r in m.receivers)
    proj, shapes = scheme.projectors, [scheme.projectors[k].shape for k in keys]
    if seed is not None:  # random_orthonormal key by key from generator(seed, ABLATION_STREAM), one QR a shape
        draws, proj = _gaussians([seed], ABLATION_STREAM, [rows * cols for rows, cols in shapes]), {}
        for shape in set(shapes):
            at = [i for i, s in enumerate(shapes) if s == shape]
            proj.update(zip([keys[i] for i in at], _orthonormal(np.stack([draws[i].reshape(shape) for i in at]))))
    plan, links, pre = scheme._checks, channels.matrices, scheme.precoders
    rows, where = {}, []
    for _, m, r, link in plan.pairs:
        if not m.dim:
            continue
        qh = proj[m.key, r].conj().mT
        g = qh @ links[link] @ pre[m.key]
        row = [(scheme.tx_streams(m.tx), g @ g.conj().mT)]
        for o, lk in plan.leaks[m.key, r] if seed is not None else ():
            other = plan.messages[o]
            leak = qh @ links[lk] @ pre[other.key]
            row.append((scheme.tx_streams(other.tx), leak @ leak.conj().mT))
        n = g.shape[-2]
        where.append((n, len(rows.setdefault(n, []))))
        rows[n].append(row)
    where = iter(where)
    return [(m.weight, [next(where) for _ in m.receivers]) for m in scheme.messages if m.dim], rows


def _covariances(rows, noise, snr, ablated: bool) -> list:
    """N + S of each `_terms` row at `snr`, and after it N if `ablated`: N = `noise` + snr / d L L^H leak by leak,
    S = snr / divisor G G^H."""
    mats = []
    for (divisor, signal), *leaks in rows:
        cov = noise
        for d, leak in leaks:
            cov = cov + snr / d * leak
        mats += [cov + snr / divisor * signal, cov] if ablated else [cov + snr / divisor * signal]
    return mats


@np.errstate(over="ignore", invalid="ignore")  # a non-finite matrix names an overflow
def _name_error(rows, messages, snrs, ablated: bool) -> None:
    """Each `_terms` pair alone at `snrs` ((grid, 1, 1) or a float), in message order, its `_covariances` in one stack.
    The first failing pair names the error by its first bad matrix in C order: a non-finite one overflowed, and once a
    finite one's largest entry times eps reaches 1, rounding has lost its identity part and a rank-deficient rest is
    singular."""
    grid = np.ravel(snrs)
    for n, i in [pair for _, pairs in messages for pair in pairs]:
        row = [(d, gram[..., None, :, :]) for d, gram in rows[n][i]]
        mats = np.stack(np.broadcast_arrays(*_covariances([row], np.eye(n, dtype=complex), snrs, ablated)))
        finite = np.isfinite(mats).all(axis=(-2, -1))
        if not finite.all():
            k = np.argmin(finite) % grid.size  # the last axis is the grid's
            raise InvalidInputError(f"snr_linear {float(grid[k])} overflows the rate Gram matrix")
        sign, logdet = _slogdet(mats)
        ok = (sign.real > 0) & np.isfinite(logdet)
        if not ok.all():
            k = np.unravel_index(np.argmin(ok), ok.shape)
            if np.abs(mats[k]).max() * _EPS >= 1:
                raise InvalidInputError(f"snr_linear {float(grid[k[-1]])} is past float64 resolution: the rate Gram "
                                        "matrix loses its identity part")
            raise InternalError("rate Gram matrix is not positive definite")


def _sum_rates(scheme: SchemeInstance, channels: ChannelSet, snrs) -> np.ndarray:
    """Zero-forcing sum rate in bits per channel use at each SNR of a grid, (grid,) or (trials, grid) on a trial axis:
    a pair's log2 det(I + snr / divisor G G^H), one slogdet a Gram size n (a failing n goes to `_name_error`); from 0
    in message order, a message adds its weight times its least rate over receivers; all over the extension factor."""
    snrs = np.asarray(snrs, dtype=float)
    if not (snrs > 0).all():
        raise InvalidInputError(f"snr_linear must be > 0, got {float(snrs[np.argmin(snrs > 0)])}")
    (messages, rows), bits = _terms(scheme, channels), {}
    with np.errstate(over="ignore", invalid="ignore"):  # sums stay checked
        for n, per_n in rows.items():
            grams = np.stack([gram for ((_, gram),) in per_n])[..., None, :, :]  # (pairs, ..., grid axis, n, n)
            divisors = np.reshape([d for ((d, _),) in per_n], (-1,) + (1,) * (grams.ndim - 1))
            mat = snrs[:, None, None] / divisors * grams
            np.add(np.eye(n, dtype=complex), mat, out=mat)  # I + S, into S: the stack is never held twice
            sign, logdet = _slogdet(mat) if np.isfinite(mat).all() else (np.zeros(1), None)
            # a finite matrix's log-det is at most a few thousand, so the sum is finite iff each is
            if not (sign.real.min() > 0 and math.isfinite(logdet.sum())):
                _name_error(rows, messages, snrs[:, None, None], False)
            bits[n], mat = logdet / _LN2, None  # this stack goes before the next is made
    total = np.zeros(channels.matrices[0].shape[:-2] + snrs.shape)
    for weight, pairs in messages:
        total += weight * functools.reduce(np.minimum, [bits[n][i] for n, i in pairs])
    return total / scheme.extension_factor


@np.errstate(over="ignore", invalid="ignore")  # a matrix that overflows fails the check
def _rate_at(snr: float, per_n, messages, ablated: bool, rows) -> float:
    """`_sum_rates`' message sum at one SNR with its bits, ablated log2 det(N + S) - log2 det N a pair: an n's
    `_covariances` in one slogdet, or at n = 1 Python complex numbers of real part >= 1, whose libm log of the hypot
    (as in slogdet) alone can fail. A failing n goes to `_name_error`."""
    bits = {}
    for n, noise, per_row in per_n:
        mats = _covariances(per_row, noise, snr, ablated)
        if n != 1:
            mat = mats[0] if len(mats) == 1 else np.array(mats)
            sign, logdet = _slogdet(mat) if np.isfinite(mat).all() else (np.zeros(1), None)
            logs = logdet.ravel().tolist() if min(sign.real.ravel().tolist()) > 0 else [math.nan]
        else:
            try:  # abs overflows where numpy's hypot gives inf
                logs = [math.log(abs(x)) for x in mats]
            except OverflowError:
                logs = [math.inf]
        if not all(map(math.isfinite, logs)):
            _name_error(rows, messages, snr, ablated)
        bits[n] = [a / _LN2 - b / _LN2 for a, b in zip(logs[::2], logs[1::2])] if ablated else [v / _LN2 for v in logs]
    total = 0.0
    for weight, pairs in messages:
        total += weight * min([bits[n][i] for n, i in pairs])
    return total


def _one_point(scheme: SchemeInstance, channels: ChannelSet, snr_linear, seed, ablated: bool) -> float:
    """`sum_rate`, or `ablated_sum_rate` at `seed`: `_rate_at` on the form of its `_terms` a sealed scheme keeps."""
    snr_linear = real(snr_linear, "snr_linear")
    memo = instance(scheme, SchemeInstance).__dict__.get("_memo", False)  # None sealed and unrated, False unsealed
    kept = memo[1] if memo and memo[0] is channels else {}
    if not kept:
        _check_scheme_matrices(scheme, channels)
    if not (snr_linear > 0):
        raise InvalidInputError(f"snr_linear must be > 0, got {snr_linear}")
    key = integer(seed, "seed") if ablated else None
    form = kept.get(key)
    if form is None:  # `_rate_at` and its arguments: 1x1 rows in Python numbers, no errstate if every row is 1x1
        messages, rows = _terms(scheme, channels, key)
        per_n = [(n, np.eye(n, dtype=complex), r) if n != 1 else
                 (n, 1 + 0j, [[(d, t.item()) for d, t in row] for row in r]) for n, r in rows.items()]
        form = (_rate_at if rows.keys() - {1} else _rate_at.__wrapped__), per_n, messages, ablated, rows
    rate = form[0](snr_linear, *form[1:])
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
    dims = [m.dim for m in _messages(split, tag) for _ in m.receivers]  # each pair's Gram size n
    n = max(dims, key=lambda d: dims.count(d) * d * d)  # that of the stack with the most entries
    if min(trials, _BLOCK) * len(grid) * dims.count(n) * n * n > _MAX_GRAM_ENTRIES:
        raise InvalidInputError(
            f"{min(trials, _BLOCK)} trials x {len(grid)} snr grid points x {dims.count(n)} pairs x {n}^2 streams "
            f"is over the {_MAX_GRAM_ENTRIES} rate Gram entries estimate_dof stacks at once")
    largest = int(max(split.totals))
    if trials * largest**3 > _MAX_WORK:
        raise InvalidInputError(
            f"{trials} trials x {largest}^3 antennas at the largest node is over the {_MAX_WORK} work budget")
    size = min(_POOLS, max(_BLOCK, _BLOCK_ENTRIES // (len(grid) * dims.count(n) * n * n)))
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
