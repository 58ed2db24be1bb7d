"""Monte-Carlo sum-rate simulation and DoF slope estimation.

At high SNR the sum rate of a valid zero-forcing scheme grows like
(achieved DoF) * log2(snr), so the slope of mean sum rate against log2(snr)
between the top grid points estimates the DoF. Per-message transmit power is
the node budget split evenly over its streams; the broadcast message counts
once per receiver (decoding must succeed at both, so its rate is the minimum
over receivers); rates are divided by the symbol-extension factor to land in
bits per channel use. Each draw's rates are evaluated over the whole SNR
grid at once, with one batched slogdet per (message, receiver) pair. A
pair's Gram stack is checked as a whole, for finite entries before the
slogdet and for a positive sign and finite log-det after it, and per matrix
only to name the SNR of a failure.

`ablated_sum_rate` draws its random projectors from generator(seed,
ABLATION_STREAM), in sorted key order: the draw ignores the SNR, channels and
scheme matrices. `build_scheme`'s schemes are read-only like a ChannelSet, so
`sum_rate` and `ablated_sum_rate` keep on one what they compute before the SNR
per (ChannelSet object, ablation seed): passed checks, Grams, leak
covariances. A sealed scheme thus draws the projectors once per (channels,
seed).

`estimate_dof` runs its trials in blocks of `_BLOCK` (10), a private
constant: each block draws its channels on a leading trial axis, builds and
verifies the scheme over that stack, and rates the trials that passed in one
`(trials, grid)` pass, so a block costs one LAPACK call per matrix role
instead of one per trial. Each trial keeps its own seed and generators, so
every draw and every rate is the one a trial-by-trial loop gets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import AntennaConfig, AntennaSplit, ChannelSet, _draw
from .errors import InternalError, InvalidInputError, instance, integer, real
from .linalg import _EPS, ABLATION_STREAM, TRIAL_STREAM, _MixedRank, _slogdet, check_seed, generator, random_orthonormal
from .rational import frac_str
from .schemes import (
    SchemeInstance, SchemeTag, _build, _check_scheme, _effective, _messages, _passed, _trials, scheme_split
)

__all__ = ["SlopeEstimate", "sum_rate", "ablated_sum_rate", "estimate_dof"]

_LN2 = math.log(2.0)

# Most trials estimate_dof runs: at about 0.75 ms per trial (the mc-slope
# configs on a 25-point grid, run in blocks; 1.9 ms at (7,6,5) uni-a), the
# largest run takes about 75 s, and about 3 minutes at (7,6,5) uni-a
_MAX_TRIALS = 100_000

# Trials per stacked draw/build/verify/rate pass of estimate_dof. Ten keeps
# most of the batching gain, while the stacks stay bounded whatever the
# trial count: the largest, one pair's (trials, grid, n, n) Gram stack, is
# about 0.8 MB at (7,6,5) uni-a on a 25-point grid.
_BLOCK = 10

# Most entries in the complex (block trials, grid points, n, n) Gram stack of
# estimate_dof's rate pass, n the largest message's stream count, checked
# before any draw: 64 MiB at 16 bytes an entry, and the pass holds about two
# such stacks. The largest the repo's own inputs make is the mc-slope
# benchmark's (7,6,5) uni-a on a 25-point grid: 10 x 25 x 10^2 = 25,000.
_MAX_GRAM_ENTRIES = 2**22


def _log2det(grams: np.ndarray, snrs) -> np.ndarray:
    """log2 det of each positive-definite I + ... in a (..., grid, n, n)
    stack, in bits, called under np.errstate(over="ignore", invalid="ignore").
    grams[..., k, :, :] was formed at snrs[k]; a non-finite one means that
    SNR overflowed. Once a finite one's largest entry times eps reaches 1,
    rounding has lost its identity part and a rank-deficient rest leaves it
    singular. The first bad matrix in C order names the SNR."""
    if not np.isfinite(grams).all():
        finite = np.isfinite(grams).all(axis=(-2, -1))
        k = np.unravel_index(np.argmin(finite), finite.shape)
        raise InvalidInputError(f"snr_linear {float(snrs[k[-1]])} overflows the rate Gram matrix")
    sign, logdet = _slogdet(grams)
    ok = (sign.real > 0) & np.isfinite(logdet)
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        if np.abs(grams[k]).max() * _EPS >= 1:
            snr = float(snrs[k[-1]])
            raise InvalidInputError(
                f"snr_linear {snr} is past float64 resolution: the rate Gram matrix loses its identity part"
            )
        raise InternalError("rate Gram matrix is not positive definite")
    return logdet / _LN2


def _stream_rho(scheme: SchemeInstance, snr_linear: float | np.ndarray) -> dict[str, float | np.ndarray]:
    """Per-stream power of each message with streams: each node splits its
    budget over its own streams."""
    return {m.key: snr_linear / scheme.tx_streams(m.tx) for m in scheme.messages if m.dim}


@functools.lru_cache(maxsize=16)
def _eye(n: int) -> np.ndarray:
    """A read-only complex n x n identity."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _memo(scheme: SchemeInstance, channels: ChannelSet) -> dict | None:
    """What a sealed scheme keeps for `channels` (by identity) once they pass
    `_check_scheme`: `_sum_rates`'s Grams under None, `ablated_sum_rate`'s
    terms per seed; {} at first, None if unsealed."""
    memo = instance(scheme, SchemeInstance).__dict__.get("_memo", False)
    if memo and memo[0] is channels:
        return memo[1]
    _check_scheme(scheme, channels)
    return None if memo is False else {}


def _keep(scheme: SchemeInstance, channels: ChannelSet, memo: dict | None, key, terms) -> None:
    """Once a call has its rate, keep its `terms` under `key` in `memo`, from
    `_memo(scheme, channels)`; past five keys it starts again from this one."""
    if memo is not None:
        memo[key] = terms
        object.__setattr__(scheme, "_memo", (channels, memo if len(memo) <= 5 else {key: terms}))


def _sum_rates(scheme: SchemeInstance, channels: ChannelSet, snrs, memo: dict | None = None) -> np.ndarray:
    """Zero-forcing sum rate at every SNR of a grid, in bits per channel use:
    shape (grid,), or (trials, grid) for a scheme and channels stacked on a
    trial axis.

    Each (message, receiver) contributes log2 det(I + rho * G G^H) with G the
    effective matrix after projection; interference is exactly nulled by
    construction so it does not enter. G G^H is formed once per pair for the
    whole grid and every trial, or read from `memo` (`_memo`). Broadcast rate
    is min over receivers, weighted by the receiver count.
    """
    snrs = np.asarray(snrs, dtype=float)
    if not (snrs > 0).all():
        raise InvalidInputError(f"snr_linear must be > 0, got {float(snrs[np.argmin(snrs > 0)])}")
    rho = _stream_rho(scheme, snrs[:, None, None])
    live = [m for m in scheme.messages if m.dim]

    def gram(m, r):
        g, _ = _effective(scheme, channels, m, r)
        return (g @ g.conj().mT)[..., None, :, :]

    with np.errstate(over="ignore", invalid="ignore"):  # _log2det names an overflow; sums stay checked
        grams = memo[None] if memo and None in memo else [[gram(m, r) for r in m.receivers] for m in live]
        bits = [[_log2det(_eye(g.shape[-1]) + rho[m.key] * g, snrs) for g in per_rx] for m, per_rx in zip(live, grams)]
    total = np.zeros(channels.matrices[0].shape[:-2] + snrs.shape)
    for m, per_rx in zip(live, bits):
        total += m.weight * functools.reduce(np.minimum, per_rx)
    _keep(scheme, channels, memo, None, grams)
    return total / scheme.extension_factor


def sum_rate(scheme: SchemeInstance, channels: ChannelSet, snr_linear: float) -> float:
    """Zero-forcing sum rate in bits per channel use at one SNR (the grid
    kernel `_sum_rates` on a one-point grid)."""
    snr_linear = real(snr_linear, "snr_linear")
    return float(_sum_rates(scheme, channels, [snr_linear], _memo(scheme, channels))[0])


def ablated_sum_rate(
    scheme: SchemeInstance, channels: ChannelSet, snr_linear: float, seed: int = 0
) -> float:
    """Sum rate with the zero-forcing projectors knocked out.

    Replaces every projector by a random orthonormal basis of the same shape
    and treats the now-unsuppressed cross-talk as noise, i.e. each pair
    contributes log2 det(I + K + S) - log2 det(I + K) with S the signal and K
    the interference covariance after projection. At high SNR this saturates
    well below the zero-forcing rate whenever interference actually matters.

    The random projectors, one per projector key in sorted key order, depend
    only on `seed` and the projector shapes (not on the SNR, the channels or
    the scheme's own matrices), so a sealed scheme draws them, and keeps the
    terms they give, once per (channels, seed).
    """
    snr_linear = real(snr_linear, "snr_linear")
    memo = _memo(scheme, channels)
    if not (snr_linear > 0):
        raise InvalidInputError(f"snr_linear must be > 0, got {snr_linear}")
    seed = check_seed(seed)
    rho = _stream_rho(scheme, snr_linear)
    live = [m for m in scheme.messages if m.dim]

    def terms(m, r):  # what a pair's rate reads before the SNR: G G^H and (key, L L^H) per leak L
        g, leaks = _effective(scheme, channels, m, r, random_proj[(m.key, r)])
        return g @ g.conj().mT, [(other.key, leak @ leak.conj().mT) for other, leak in leaks]

    def log2det_ratio(m, gram, covs):
        signal = rho[m.key] * gram
        noise = _eye(gram.shape[0])
        for key, cov in covs:
            noise = noise + rho[key] * cov
        with_signal, without = _log2det(np.array([noise + signal, noise]), (snr_linear, snr_linear)).tolist()
        return with_signal - without

    with np.errstate(over="ignore", invalid="ignore"):  # _log2det names an overflow; sums stay checked
        pairs = memo.get(seed) if memo else None
        if pairs is None:
            rng = generator(seed, ABLATION_STREAM)
            keys = sorted((m.key, r) for m in scheme.messages for r in m.receivers)
            random_proj = {k: random_orthonormal(rng, *scheme.projectors[k].shape) for k in keys}
            pairs = [[terms(m, r) for r in m.receivers] for m in live]
        bits = [[log2det_ratio(m, *pair) for pair in per_rx] for m, per_rx in zip(live, pairs)]
    total = 0.0
    for m, per_rx in zip(live, bits):
        total += m.weight * min(per_rx)
    _keep(scheme, channels, memo, seed, pairs)
    return total / scheme.extension_factor


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

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "snr_db": list(self.snr_db),
            "mean_rates": list(self.mean_rates),
            "slope": self.slope,
            "theoretical_dof": frac_str(self.theoretical_dof),
            "abs_error": self.abs_error,
            "trials": self.trials,
            "invalid_trials": self.invalid_trials,
            "fit": self.fit,
        }


def _trial_seed(seed: int, k: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(TRIAL_STREAM, int(k)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rate_block(config: AntennaConfig, tag: SchemeTag, split: AntennaSplit, ext: int, seeds, snrs):
    """Draw, build, verify and rate one block of trials, `seeds[k]` the seed
    of trial k: (scheme, which trials passed, (trials, grid) rates, 0 where
    a trial failed). A trial's draws use its seed's own streams, as
    `draw_channels`, `build_scheme` and `verify_scheme` would alone."""
    channels = _draw(split, seeds, (len(seeds),))
    scheme = _build(config, tag, ext, channels, seeds)
    valid = _passed(scheme, channels, seeds)
    rates = np.zeros((len(seeds), len(snrs)))
    if valid.any():
        rates[valid] = _sum_rates(*_trials(scheme, channels, valid), snrs)
    return scheme, valid, rates


def estimate_dof(
    config: AntennaConfig,
    tag: SchemeTag,
    snr_grid_db=(30.0, 50.0),
    trials: int = 50,
    seed: int = 0,
    fit: str = "two-point",
) -> SlopeEstimate:
    """Estimate achieved DoF of a scheme by simulation.

    Draws `trials` independent channels, builds and verifies the scheme on
    each (invalid draws are counted and skipped), averages sum rates over the
    SNR grid, and differences the top two grid points ("two-point", default)
    or least-squares fits the top half ("lsq-top-half"). The grid should top
    out at 30 dB or more for the slope to be in the DoF regime. Trials run in
    stacked blocks of _BLOCK, with the results of a trial-by-trial loop.
    """
    try:
        grid = tuple(real(s, "snr grid point") for s in snr_grid_db)
    except TypeError:  # not iterable
        raise InvalidInputError(f"snr grid must be a sequence of real dB values, got {snr_grid_db!r}") from None
    if len(grid) < 2:
        raise InvalidInputError("snr grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError(f"snr grid must be strictly increasing, got {grid}")
    trials = integer(trials, "trials", 1, _MAX_TRIALS)
    if fit not in ("two-point", "lsq-top-half"):
        raise InvalidInputError(f"fit must be 'two-point' or 'lsq-top-half', got {fit!r}")
    seed = check_seed(seed)
    try:
        snr_linear = [10.0 ** (db / 10.0) for db in grid]
    except OverflowError:
        snr_linear = [math.inf]
    if not all(math.isfinite(s) and s > 0 for s in snr_linear):
        raise InvalidInputError(f"snr grid {grid} dB has a point with no finite positive linear value")

    split, ext = scheme_split(config, tag)
    n = max(m.dim for m in _messages(split, tag))
    if min(trials, _BLOCK) * len(grid) * n * n > _MAX_GRAM_ENTRIES:
        raise InvalidInputError(
            f"{min(trials, _BLOCK)} trials x {len(grid)} snr grid points x {n}^2 stream pairs is over the "
            f"{_MAX_GRAM_ENTRIES} rate Gram entries estimate_dof stacks at once"
        )
    rates = np.zeros((trials, len(grid)))
    valid = np.zeros(trials, dtype=bool)
    for start in range(0, trials, _BLOCK):
        block = slice(start, start + _BLOCK)
        seeds = [_trial_seed(seed, k) for k in range(trials)[block]]
        try:
            scheme, valid[block], rates[block] = _rate_block(config, tag, split, ext, seeds, snr_linear)
        except _MixedRank:  # a null space of non-generic rank: the block goes one trial at a time
            for k, ts in zip(range(trials)[block], seeds):
                scheme, valid[k : k + 1], rates[k : k + 1] = _rate_block(config, tag, split, ext, [ts], snr_linear)
    theoretical = scheme.claimed_dof()
    if not valid.any():
        raise InternalError(
            f"all {trials} channel draws produced invalid schemes for {tag.value} on {config.totals}"
        )
    mean_rates = rates[valid].mean(axis=0)

    log2_snr = np.array([db / 10.0 * math.log2(10.0) for db in grid])
    if fit == "two-point":
        slope = float((mean_rates[-1] - mean_rates[-2]) / (log2_snr[-1] - log2_snr[-2]))
    else:
        top = max(2, math.ceil(len(grid) / 2))
        slope = float(np.polyfit(log2_snr[-top:], mean_rates[-top:], 1)[0])

    return SlopeEstimate(
        scheme=tag,
        snr_db=grid,
        mean_rates=tuple(float(r) for r in mean_rates),
        slope=slope,
        theoretical_dof=theoretical,
        abs_error=abs(slope - float(theoretical)),
        trials=trials,
        invalid_trials=int(trials - valid.sum()),
        fit=fit,
    )
